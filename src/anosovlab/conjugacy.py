"""Bounded conjugacy between a perturbed lift and its linear part.

The unique bounded solution of A o H = H o F with H = Id + u splits along the
spectral projections of A:

    u(x) =  sum_{n>=0} A^{-(n+1)} P_u phi(F^n x)
          - sum_{n>=0} A^{n}     P_s phi(F^{-(n+1)} x),    phi = F - A.

Forward terms are Z^d-periodic (F^n commutes with integer translations up to
A^n times an integer vector), so the forward orbit runs on the torus. The
backward terms are evaluated along the genuine lift orbit: they are periodic
exactly when the map is special, and their failure to be periodic is the
specialness defect this module measures.

Truncation at depth N carries a certified sup-norm tail. The closed-form
geometric bound needs max(||A|L^s||, 1/m(A|L^u)) < 1; non-normal stable blocks
can push ||A|L^s|| above 1 even when all stable eigenvalues are inside the
unit circle, in which case the bound falls back to summed operator norms of
the actual weight matrices (transient-aware, still an upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from anosovlab.errors import NoConvergence, ResourceLimit
from anosovlab.linear import LinearModel, minimal_deep_vector
from anosovlab.maps import TorusMap
from anosovlab.util import float_cell, grid_points

# Anderson acceleration for H^{-1}: history window m, mixing beta, iteration cap
_ANDERSON_WINDOW = 4
_ANDERSON_MIXING = 1.0
_ANDERSON_MAX_ITER = 250
# deepest series the evaluator builds
_MAX_SERIES_DEPTH = 400


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """phi(x) = F(x) - A x with a measured and, when available, exact sup bound."""

    map: TorusMap
    sup_norm: float
    grid_sup: float
    grid_n: int


def displacement_field(f: TorusMap) -> DisplacementField:
    grid_n = 64 if f.dim == 2 else 24
    pts = grid_points(f.dim, grid_n)
    grid_sup = float(np.linalg.norm(f.displacement(pts), axis=1).max())
    sup_norm = max(f.displacement_sup_bound(grid_sup), grid_sup)
    return DisplacementField(map=f, sup_norm=sup_norm, grid_sup=grid_sup, grid_n=grid_n)


@dataclass(frozen=True, eq=False)
class ConjugacyEvaluator:
    """Truncated-series evaluator for H, H^{-1} and the defect diagnostics."""

    map: TorusMap
    series_depth: int
    stable_norm: float
    unstable_conorm: float
    displacement_bound: float
    tail_bound: float
    tail_method: str
    weights_unstable: np.ndarray = field(repr=False)  # (N, d, d): A^{-(n+1)} P_u
    weights_stable: np.ndarray = field(repr=False)    # (N, d, d): A^{n} P_s

    @property
    def model(self) -> LinearModel:
        return self.map.model

    @property
    def sup_bound(self) -> float:
        """Certified bound on ||H - Id||: full weight-norm sum plus the tail."""
        w = np.linalg.norm(self.weights_unstable, ord=2, axis=(1, 2)).sum()
        w += np.linalg.norm(self.weights_stable, ord=2, axis=(1, 2)).sum()
        return self.displacement_bound * float(w) + self.tail_bound

    # -- series ----------------------------------------------------------

    def _series_unstable(self, x: np.ndarray) -> np.ndarray:
        """Forward-orbit part; periodic in x, so the orbit runs on the torus."""
        disp = self.map.orbit_displacements(x, self.series_depth)
        acc = np.zeros(x.shape)
        for n in range(self.series_depth):
            acc += disp[n] @ self.weights_unstable[n].T
        return acc

    def _series_stable(self, x: np.ndarray) -> np.ndarray:
        """Backward-orbit part; must follow the true lift orbit of x."""
        disp = self.map.preimage_displacements(x, self.series_depth)
        acc = np.zeros(x.shape)
        for n in range(self.series_depth):
            acc -= disp[n] @ self.weights_stable[n].T
        return acc

    def h_displacement(self, x) -> np.ndarray:
        """u(x) = H(x) - x."""
        xb = np.asarray(x, dtype=float)
        single = xb.ndim == 1
        xb = xb[None, :] if single else xb
        if self.map.is_linear:
            out = np.zeros_like(xb)
        else:
            out = self._series_unstable(xb) + self._series_stable(xb)
        return out[0] if single else out

    def apply(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) + self.h_displacement(x)

    def _u_rows(self, x: np.ndarray) -> np.ndarray:
        """u with each row rounded as in any larger batch: numpy multiplies a
        one-row batch on its matrix-vector path, so a single row is doubled."""
        if x.shape[0] > 1:
            return self.h_displacement(x)
        return self.h_displacement(np.repeat(x, 2, axis=0))[:1]

    def apply_inverse(self, y, tol: float = 1e-10) -> np.ndarray:
        """Solve H(x) = y by per-row Anderson acceleration.

        Anderson mixing (J. ACM 12, 1965; Walker and Ni, SIAM J. Numer. Anal.
        49, 2011) on x = y - u(x): with residual f = y - u(x) - x and the row's
        last m differences dX, dF of iterates and residuals, x <- x + beta f -
        (dX + beta dF) gamma for the min-norm gamma of min ||dF gamma - f||.
        Rows step together until ||x + u(x) - y|| <= tol, so one batched pinv
        serves them all and no row depends on the rest of the batch. A row
        still above tol after _ANDERSON_MAX_ITER steps raises NoConvergence.
        """
        yb = np.asarray(y, dtype=float)
        single = yb.ndim == 1
        yb = yb[None, :] if single else yb
        if self.map.is_linear:
            return yb[0].copy() if single else yb.copy()
        x = yb.copy()
        f = -self._u_rows(x)
        d_x = np.zeros(yb.shape + (_ANDERSON_WINDOW,))
        d_f = np.zeros_like(d_x)
        for k in range(_ANDERSON_MAX_ITER + 1):
            # a non-finite residual stays active and ends in NoConvergence
            active = np.flatnonzero(~(np.linalg.norm(f, axis=1) <= tol))
            if not active.size:
                return x[0] if single else x
            if k == _ANDERSON_MAX_ITER:
                break
            fa = f[active]
            step = _ANDERSON_MIXING * fa
            if k:
                h = min(k, _ANDERSON_WINDOW)
                df = d_f[active, :, :h]
                gamma = np.linalg.pinv(df) @ fa[:, :, None]
                step -= ((d_x[active, :, :h] + _ANDERSON_MIXING * df) @ gamma)[:, :, 0]
            x_new = x[active] + step
            f_new = yb[active] - x_new - self._u_rows(x_new)
            slot = k % _ANDERSON_WINDOW
            d_x[active, :, slot] = step
            d_f[active, :, slot] = f_new - fa
            x[active], f[active] = x_new, f_new
        r = int(active[0])
        raise NoConvergence(
            f"H^(-1) iteration stalled at row {r}: residual {float(np.linalg.norm(f[r])):.3e}"
        )

    def conjugation_residual(self, samples: int = 200, seed: int = 0) -> float:
        """Sampled sup of ||A H(x) - H(F x)||; bounded by a small multiple of the tail."""
        rng = np.random.default_rng(seed)
        x = rng.random((samples, self.map.dim))
        lhs = self.apply(x) @ self.model.array.T
        rhs = self.apply(self.map.evaluate(x))
        return float(np.linalg.norm(lhs - rhs, axis=1).max())


def _series_weights(model: LinearModel, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Series weights A^{-(n+1)} P_u and A^n P_s for n < count.

    Naively iterating w <- A w (or A^{-1} w) is unstable: rounding noise along
    the complementary spectral subspace grows geometrically and swamps the
    true decay after ~20 steps. Iterating inside each invariant block instead
    keeps every eigenvalue of the iteration matrix strictly inside the unit
    circle, so the computed norms decay cleanly to underflow. Weight n does
    not depend on count.
    """
    a = model.array
    b_s, b_u = model.stable_basis, model.unstable_subspace
    m_s = b_s.T @ a @ b_s
    m_u = b_u.T @ a @ b_u
    k_s = b_s.T @ model.stable_projection
    k_u = b_u.T @ model.unstable_projection
    w_u = np.empty((count, model.dim, model.dim))
    w_s = np.empty_like(w_u)
    s_pow = np.eye(b_s.shape[1])
    u_pow = np.linalg.solve(m_u, np.eye(b_u.shape[1]))
    for n in range(count):
        w_s[n] = b_s @ s_pow @ k_s
        w_u[n] = b_u @ u_pow @ k_u
        s_pow = m_s @ s_pow
        u_pow = np.linalg.solve(m_u, u_pow)
    return w_u, w_s


def _power_tail(model: LinearModel, sup_norm: float):
    """(tail, (w_u, w_s)): the tail bound sup_norm * (sum of the weight norms from
    n on) over a scan of _MAX_SERIES_DEPTH + 60 weights, plus a geometric
    remainder past the scan, and the scanned weights."""
    w_u, w_s = _series_weights(model, _MAX_SERIES_DEPTH + 60)
    nu_norms = np.linalg.norm(w_u, ord=2, axis=(1, 2))
    ns_norms = np.linalg.norm(w_s, ord=2, axis=(1, 2))

    # a sequence that underflows to exact zero has no remainder left to bound
    def _end_ratio(norms: np.ndarray) -> float:
        return float(norms[-1] / norms[-2]) if norms[-2] > 0.0 else 0.0

    tail_ratio = max(_end_ratio(ns_norms), _end_ratio(nu_norms))
    if tail_ratio >= 1.0:
        raise ResourceLimit(
            f"series weight norms not decaying within the scan window (ratio {tail_ratio:.6f})"
        )
    remainder = (nu_norms[-1] + ns_norms[-1]) * tail_ratio / (1.0 - tail_ratio)
    suffix = np.cumsum((nu_norms + ns_norms)[::-1])[::-1]

    def tail(n: int) -> float:
        return sup_norm * (float(suffix[n]) + remainder)

    return tail, (w_u, w_s)


def conjugacy_evaluator(
    f: TorusMap,
    residual_target: float = 1e-9,
    depth: int | None = None,
) -> ConjugacyEvaluator:
    """Build an evaluator whose certified truncation tail meets residual_target.

    With an explicit depth the tail is computed for that depth instead. The
    tail is the closed geometric form when rate = max(||A|L^s||, 1/m(A|L^u))
    is below 1; otherwise it sums the norms of a long scan of the weights.
    """
    model = f.model
    disp = displacement_field(f)
    sigma = model.stable_norm
    nu = model.unstable_conorm
    rate = max(sigma, 1.0 / nu)
    weights = None
    if rate < 1.0:
        method = "closed_form"

        def tail_fn(n: int) -> float:
            return disp.sup_norm * rate**n / (1.0 - rate)
    else:
        method = "power_norms"
        tail_fn, weights = _power_tail(model, disp.sup_norm)
    if depth is None:
        if disp.sup_norm == 0.0:
            depth = 1
        else:
            for n in range(1, _MAX_SERIES_DEPTH + 1):
                if tail_fn(n) <= residual_target:
                    depth = n
                    break
            else:
                raise ResourceLimit(
                    f"depth {_MAX_SERIES_DEPTH} still has tail {tail_fn(_MAX_SERIES_DEPTH):.3e} "
                    f"> {residual_target:.3e}"
                )
    elif not 1 <= depth <= _MAX_SERIES_DEPTH:
        raise ValueError(f"depth must lie in [1, {_MAX_SERIES_DEPTH}]")
    w_u, w_s = weights or _series_weights(model, depth)
    return ConjugacyEvaluator(
        map=f,
        series_depth=depth,
        stable_norm=sigma,
        unstable_conorm=nu,
        displacement_bound=disp.sup_norm,
        tail_bound=tail_fn(depth),
        tail_method=method,
        weights_unstable=w_u[:depth],
        weights_stable=w_s[:depth],
    )


# -- translation diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class SpecialnessReport:
    """Defects H(x+e_j) - H(x) - e_j over samples, split along A's splitting."""

    max_defect: float
    max_stable_component: float
    max_unstable_component: float
    u_sup_measured: float
    threshold: float
    special: bool
    rows: tuple  # (point, direction j, defect, stable part, unstable part)

    def csv_rows(self) -> list[list[str]]:
        out = [["point", "direction", "defect", "stable_component", "unstable_component"]]
        for pt, j, d, s, u in self.rows:
            out.append([" ".join(float_cell(c) for c in pt), str(j), float_cell(d), float_cell(s), float_cell(u)])
        return out


def specialness_defect(
    ce: ConjugacyEvaluator, samples: int = 50, seed: int = 0, threshold: float = 1e-4
) -> SpecialnessReport:
    """Max translation defect over samples x basis directions.

    `threshold` is relative to the measured sup of ||u||; the absolute
    comparison value is threshold * max(||u||, 1e-12).
    """
    d = ce.map.dim
    rng = np.random.default_rng(seed)
    x = rng.random((samples, d))
    stacks = [x] + [x + np.eye(d)[j] for j in range(d)]
    u = ce.h_displacement(np.concatenate(stacks, axis=0)).reshape(d + 1, samples, d)
    defect = u[1:] - u[0][None, :, :]
    p_s, p_u = ce.model.stable_projection, ce.model.unstable_projection
    stable = np.linalg.norm(defect @ p_s.T, axis=2)
    unstable = np.linalg.norm(defect @ p_u.T, axis=2)
    norms = np.linalg.norm(defect, axis=2)
    u_sup = float(np.linalg.norm(u[0], axis=1).max())
    rows = tuple(
        (tuple(x[i]), j, float(norms[j, i]), float(stable[j, i]), float(unstable[j, i]))
        for j in range(d)
        for i in range(samples)
    )
    max_defect = float(norms.max())
    return SpecialnessReport(
        max_defect=max_defect,
        max_stable_component=float(stable.max()),
        max_unstable_component=float(unstable.max()),
        u_sup_measured=u_sup,
        threshold=threshold,
        special=max_defect <= threshold * max(u_sup, 1e-12),
        rows=rows,
    )


@dataclass(frozen=True)
class DecayTable:
    """Translation defects along lattice vectors n_m of depth m (n_m in A^m Z^d).

    D_m_inverse is read through H^-1, which apply_inverse solves to a residual
    of 1e-10: that is the column's floor, and a value near or below it is
    solver error, not a translation defect.
    """

    rows: tuple  # (m, n_m, D_m, D_m_inverse)
    fitted_rate: float
    stable_log_norm: float

    def csv_rows(self) -> list[list[str]]:
        out = [["m", "n_m", "D_m", "D_m_inverse", "fitted_rate"]]
        for m, vec, d_m, d_inv in self.rows:
            out.append([
                str(m),
                " ".join(str(c) for c in vec),
                float_cell(d_m),
                float_cell(d_inv),
                float_cell(self.fitted_rate),
            ])
        return out


def deep_translation_decay(
    ce: ConjugacyEvaluator, m_max: int = 6, samples: int = 12, seed: int = 0
) -> DecayTable:
    """Measure D_m = max_x |H(x + n_m) - H(x) - n_m| for depth-m lattice vectors.

    n_m is a minimal-norm nonzero member of A^m Z^d. Deeper vectors admit more
    factors of A^{-1} inside the lattice, so D_m decays like the stable norm
    to the m-th power; the fitted log-linear slope is reported. D_m_inverse,
    the same defect of H^-1, cannot resolve below the 1e-10 residual to which
    apply_inverse solves: on product_T3 every row m >= 1 reads one solver
    error of about 1.3e-10.
    """
    d = ce.map.dim
    rng = np.random.default_rng(seed)
    x = rng.random((samples, d))
    vecs = [minimal_deep_vector(ce.model.matrix, m) for m in range(m_max + 1)]
    arr = np.array(vecs, dtype=float)
    stacks = [x] + [x + arr[m] for m in range(m_max + 1)]
    u = ce.h_displacement(np.concatenate(stacks, axis=0)).reshape(m_max + 2, samples, d)
    d_m = np.linalg.norm(u[1:] - u[0][None], axis=2).max(axis=1)

    y = rng.random((samples, d))
    stacks_inv = [y] + [y + arr[m] for m in range(m_max + 1)]
    hin = ce.apply_inverse(np.concatenate(stacks_inv, axis=0)).reshape(m_max + 2, samples, d)
    d_inv = np.linalg.norm(
        hin[1:] - hin[0][None] - arr[:, None, :], axis=2
    ).max(axis=1)

    ms = np.arange(1, m_max + 1)
    mask = d_m[1:] > 1e-13
    if mask.sum() >= 2:
        slope = float(np.polyfit(ms[mask], np.log(d_m[1:][mask]), 1)[0])
    else:
        slope = 0.0
    rows = tuple(
        (m, tuple(int(c) for c in vecs[m]), float(d_m[m]), float(d_inv[m]))
        for m in range(m_max + 1)
    )
    return DecayTable(rows=rows, fitted_rate=slope, stable_log_norm=float(np.log(ce.stable_norm)))
