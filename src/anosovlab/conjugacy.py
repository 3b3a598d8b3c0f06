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

H^{-1} is not summed. The truncated series telescopes along the orbit of x,
so H(x) = y is an orbit boundary-value problem, which apply_inverse solves
for every orbit point at once.

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
from anosovlab.util import float_cell, grid_points, rows_times, wrap

# Anderson acceleration for H^{-1}, undamped: history window m and iteration cap
_ANDERSON_WINDOW = 4
_ANDERSON_MAX_ITER = 250
# orbit residual at which an H^{-1} row stops, relative to max(1, |A^j y|) per point
_ORBIT_TOL = 1e-13
# deepest series the evaluator builds
_MAX_SERIES_DEPTH = 400
# |H(x) - y| at which an H^-1 row passes its series check
_SERIES_TOL = 1e-10
# deep_translation_decay: deepest lattice depth m and sample points
_DECAY_DEPTH = 6
_DECAY_SAMPLES = 12


def displacement_sup(f: TorusMap) -> float:
    """Sup bound of |phi| for phi(x) = F(x) - A x: the exact bound when there is one,
    never below the largest |phi| measured on a grid."""
    pts = grid_points(f.dim, 64 if f.dim == 2 else 24)
    grid_sup = float(np.linalg.norm(f.displacement(pts), axis=1).max())
    return max(f.displacement_sup_bound(grid_sup), grid_sup)


@dataclass(frozen=True, eq=False)
class ConjugacyEvaluator:
    """Truncated-series evaluator for H, H^{-1} and the defect diagnostics."""

    map: TorusMap
    series_depth: int
    stable_norm: float
    unstable_conorm: float
    displacement_bound: float
    tail_bound: float
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

    def h_displacement(self, x: np.ndarray) -> np.ndarray:
        """u(x) = H(x) - x."""
        if self.map.is_linear:
            return np.zeros_like(x)
        return self._series_unstable(x) + self._series_stable(x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x + self.h_displacement(x)

    def apply_inverse(self, y: np.ndarray) -> np.ndarray:
        """Solve H(x) = y as one orbit boundary-value problem per row.

        At depth N the series telescopes along x_j = F^j x to
        H(x) = A^-N P_u F^N x + A^N P_s F^-N x, so H(x) = y exactly when
        e_j = x_j - A^j y, |j| <= N, solves e_(j+1) = A e_j + phi(A^j y + e_j)
        with P_u e_N = 0 and P_s e_-N = 0. That shadowing problem is well
        conditioned however rough H is (Hammel, Yorke and Grebogi,
        J. Complexity 3, 1987; Coomes, Kocak and Palmer, Numer. Math. 69,
        1995). It is solved in the chart, x_j = C(z_j), for eps_j = z_j - A^j y:
        eps_(j+1) = A eps_j + (S - A) z_j and e_j = eps_j + (C - Id) z_j, with
        both offsets from TorusMap.orbit_offsets. Forward base points A^j y are
        wrapped; backward ones stay on the lift.

        The fixed-point map is the linear model's solution for the offsets at
        the current guess (_linear_orbit). Anderson mixing (J. ACM 12, 1965;
        Walker and Ni, SIAM J. Numer. Anal. 49, 2011) runs on each row's whole
        deviation vector: with residual f and the row's last m differences dX,
        dF of iterates and residuals, eps <- eps + f - (dX + dF) gamma
        for the min-norm gamma of min ||dF gamma - f||, in the weighted norm of
        the stop rule. A row stops once every orbit point's residual is within
        _ORBIT_TOL max(1, |A^j y|), so no row depends on the rest of the batch.
        One H evaluation then checks x = y + e_0: a row with
        ||x + u(x) - y|| > _SERIES_TOL, or one still moving after
        _ANDERSON_MAX_ITER steps, raises NoConvergence.
        """
        if self.map.is_linear:
            return y.copy()
        n, d = y.shape
        depth = self.series_depth
        a = self.model.array
        # base points A^j y, j = -N .. N, at index j + N
        base = np.empty((2 * depth + 1, n, d))
        base[depth] = y
        a_inv = np.linalg.inv(a)
        for j in range(depth):
            base[depth + j + 1] = wrap(rows_times(base[depth + j], a))
            base[depth - j - 1] = rows_times(base[depth - j], a_inv)
        # each row's chart deviations eps_-N .. eps_N flattened, and the stop rule's weights
        shape = (n, 2 * depth + 1, d)
        weight = np.repeat(1.0 / np.maximum(1.0, np.abs(base).max(axis=2)).T, d, axis=1)
        blocks = _invariant_blocks(self.model)

        def residual(rows: np.ndarray, dev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """(T(dev) - dev, C(z_0) - z_0) for the deviations dev of rows."""
            dev_t = dev.reshape((rows.size,) + shape[1:]).transpose(1, 0, 2)
            steps, offsets = self.map.orbit_offsets(base[:, rows] + dev_t)
            res = _linear_orbit(blocks, steps, offsets) - dev_t
            return res.transpose(1, 0, 2).reshape(dev.shape), offsets[1]

        dev = np.zeros((n, shape[1] * d))
        f, offset = residual(np.arange(n), dev)
        d_x = np.zeros(dev.shape + (_ANDERSON_WINDOW,))
        d_f = np.zeros_like(d_x)
        for k in range(_ANDERSON_MAX_ITER + 1):
            # a non-finite residual stays active and ends in NoConvergence
            err = (np.abs(f) * weight).max(axis=1)
            active = np.flatnonzero(~(err <= _ORBIT_TOL))
            if not active.size:
                break
            if k == _ANDERSON_MAX_ITER:
                r = int(active[0])
                raise NoConvergence(f"H^(-1) orbit iteration stalled at row {r}: residual {float(err[r]):.3e}")
            fa = f[active]
            step = fa.copy()  # fa is read again for the history below
            if k:
                h = min(k, _ANDERSON_WINDOW)
                df, wa = d_f[active, :, :h], weight[active]
                gamma = np.linalg.pinv(df * wa[:, :, None]) @ (fa * wa)[:, :, None]
                step -= ((d_x[active, :, :h] + df) @ gamma)[:, :, 0]
            dev_new = dev[active] + step
            f_new, offset[active] = residual(active, dev_new)
            slot = k % _ANDERSON_WINDOW
            d_x[active, :, slot] = step
            d_f[active, :, slot] = f_new - fa
            dev[active], f[active] = dev_new, f_new
        x = y + dev.reshape(shape)[:, depth] + offset
        miss = np.linalg.norm(x + self.h_displacement(x) - y, axis=1)
        bad = np.flatnonzero(~(miss <= _SERIES_TOL))
        if bad.size:
            r = int(bad[0])
            raise NoConvergence(
                f"H^(-1) at row {r} fails its series check: residual {float(miss[r]):.3e} > {_SERIES_TOL:g}"
            )
        return x


def _invariant_blocks(model: LinearModel) -> tuple[np.ndarray, ...]:
    """(b_s, b_u, m_s, m_u, k_s, k_u): orthonormal bases of E^s and E^u, A in
    each basis, and the maps from v to the coordinates of P_s v and P_u v."""
    a = model.array
    b_s, b_u = model.stable_basis, model.unstable_subspace
    return (b_s, b_u, b_s.T @ a @ b_s, b_u.T @ a @ b_u,
            b_s.T @ model.stable_projection, b_u.T @ model.unstable_projection)


def _linear_orbit(blocks: tuple[np.ndarray, ...], steps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The deviations eps (2N + 1, n, d) of the linear model driven by the
    step offsets (2N, n, d): eps_(j+1) = A eps_j + steps_j, with
    P_s eps_0 = -P_s offsets[0] and P_u eps_2N = -P_u offsets[-1].

    The stable part runs forward and the unstable part backward, each inside
    its invariant block, where both recursions contract (see _series_weights).
    """
    b_s, b_u, m_s, m_u, k_s, k_u = blocks
    m_u_inv = np.linalg.inv(m_u)
    count = steps.shape[0]
    g_s, g_u = rows_times(steps, k_s), rows_times(steps, k_u)
    s = np.empty((count + 1,) + g_s.shape[1:])
    u = np.empty((count + 1,) + g_u.shape[1:])
    s[0] = -rows_times(offsets[0], k_s)
    u[count] = -rows_times(offsets[-1], k_u)
    for j in range(count):
        s[j + 1] = rows_times(s[j], m_s) + g_s[j]
        i = count - 1 - j
        u[i] = rows_times(u[i + 1] - g_u[i], m_u_inv)
    return rows_times(s, b_s) + rows_times(u, b_u)


def _series_weights(model: LinearModel, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Series weights A^{-(n+1)} P_u and A^n P_s for n < count.

    Naively iterating w <- A w (or A^{-1} w) is unstable: rounding noise along
    the complementary spectral subspace grows geometrically and swamps the
    true decay after ~20 steps. Iterating inside each invariant block instead
    keeps every eigenvalue of the iteration matrix strictly inside the unit
    circle, so the computed norms decay cleanly to underflow. Weight n does
    not depend on count.
    """
    b_s, b_u, m_s, m_u, k_s, k_u = _invariant_blocks(model)
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


def conjugacy_evaluator(f: TorusMap, residual_target: float, depth: int | None) -> ConjugacyEvaluator:
    """Build an evaluator whose certified truncation tail meets residual_target.

    With an explicit depth the tail is computed for that depth instead. The
    tail is the closed geometric form when rate = max(||A|L^s||, 1/m(A|L^u))
    is below 1; otherwise it sums the norms of a long scan of the weights.
    """
    model = f.model
    sup_norm = displacement_sup(f)
    sigma = model.stable_norm
    nu = model.unstable_conorm
    rate = max(sigma, 1.0 / nu)
    weights = None
    if rate < 1.0:

        def tail_fn(n: int) -> float:
            return sup_norm * rate**n / (1.0 - rate)
    else:
        tail_fn, weights = _power_tail(model, sup_norm)
    if depth is None:
        if sup_norm == 0.0:
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
        displacement_bound=sup_norm,
        tail_bound=tail_fn(depth),
        weights_unstable=w_u[:depth],
        weights_stable=w_s[:depth],
    )


# -- translation diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class SpecialnessReport:
    """Defects H(x+e_j) - H(x) - e_j over samples, split along A's splitting."""

    max_defect: float
    max_unstable_component: float
    u_sup_measured: float
    special: bool
    rows: tuple  # (point, direction j, defect, stable part, unstable part)

    def csv_rows(self) -> list[list[str]]:
        out = [["point", "direction", "defect", "stable_component", "unstable_component"]]
        for pt, j, d, s, u in self.rows:
            out.append([" ".join(float_cell(c) for c in pt), str(j), float_cell(d), float_cell(s), float_cell(u)])
        return out


def specialness_defect(ce: ConjugacyEvaluator, samples: int, seed: int, threshold: float) -> SpecialnessReport:
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
        max_unstable_component=float(unstable.max()),
        u_sup_measured=u_sup,
        special=max_defect <= threshold * max(u_sup, 1e-12),
        rows=rows,
    )


@dataclass(frozen=True)
class DecayTable:
    """Translation defects along lattice vectors n_m of depth m (n_m in A^m Z^d).

    D_m_inverse is read through H^-1. apply_inverse solves the orbit of each
    point to 1e-13 relative and checks |H(x) - y| <= 1e-10 only afterwards, so
    that check is no floor: on the special product_T3 the column reads 4e-14.
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


def deep_translation_decay(ce: ConjugacyEvaluator, seed: int) -> DecayTable:
    """Measure D_m = max_x |H(x + n_m) - H(x) - n_m| for depth-m lattice vectors,
    m <= _DECAY_DEPTH, over _DECAY_SAMPLES points.

    n_m is a minimal-norm nonzero member of A^m Z^d. Deeper vectors admit more
    factors of A^{-1} inside the lattice, so D_m decays like the stable norm
    to the m-th power; the fitted log-linear slope is reported. D_m_inverse
    is the same defect of H^-1; on product_T3 every row m >= 1 reads 4.4e-14,
    the precision of the orbit solve.
    """
    d, m_max, samples = ce.map.dim, _DECAY_DEPTH, _DECAY_SAMPLES
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
