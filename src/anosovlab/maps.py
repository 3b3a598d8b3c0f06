"""Torus map fixtures: lifts, Jacobians, preimages, cone-field certificates.

A map is an integer hyperbolic linear part A plus a Z^d-periodic displacement.
Two representations are supported: an explicit trigonometric-polynomial
perturbation F = A + eps*p, and a conjugated form F = G o A o G^{-1} with
G = Id + eps*q a trig diffeomorphism (the displacement is then evaluated
pointwise; it is still Z^d-periodic but not a finite trig polynomial).
Both are one model, F = C o S o C^{-1} with a chart C and a chart step S:
C = Id and S = A + eps*p for a perturbation, C = G and S = A for a conjugated
map. Every evaluation and orbit walk is written once in that form.

All evaluation paths are batched: points are (n, d) arrays, Jacobians
(n, d, d). Lifts commute with integer translations by construction, so
evaluation at |x| ~ 1e6 (backward-orbit work) only needs trig arguments
reduced mod 1, which happens inside the field evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Real

import numpy as np

from anosovlab.errors import (
    CertificationFailed,
    IncompleteEnumeration,
    NoConvergence,
    NotLocalDiffeo,
    UnknownFixture,
)
from anosovlab.linear import LinearModel, analyze_matrix, coset_representatives
from anosovlab.util import grid_points, inv_batched, solve_batched, torus_distance, wrap

# Newton solves for G^-1 and the trig lift inverse: relative residual of G^-1, iteration cap
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 80
# relative residual of the lift inverse along orbit walks
_INVERT_TOL = 1e-12
# relative residual of `invert`, and the torus distance at which two preimages collide
_PREIMAGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TrigField:
    """Z^d-periodic vector field with finitely many integer-frequency modes.

    Component i is sum_t cos(2 pi k_t.x) c_t + sin(2 pi k_t.x) s_t over that
    coordinate's term list.
    """

    freqs: tuple[np.ndarray, ...]
    cos_coeffs: tuple[np.ndarray, ...]
    sin_coeffs: tuple[np.ndarray, ...]
    dim: int

    @staticmethod
    def from_terms(dim: int, terms: dict[int, list[tuple]]) -> "TrigField":
        """terms maps coordinate index -> [(freq vector, cos coeff, sin coeff), ...]."""
        freqs, coss, sins = [], [], []
        for i in range(dim):
            entries = terms.get(i, [])
            k = np.array([e[0] for e in entries], dtype=float).reshape(len(entries), dim)
            if k.size and not np.allclose(k, np.round(k)):
                raise ValueError(f"non-integer frequency in coordinate {i}: {k}")
            freqs.append(k)
            coss.append(np.array([e[1] for e in entries], dtype=float))
            sins.append(np.array([e[2] for e in entries], dtype=float))
        return TrigField(tuple(freqs), tuple(coss), tuple(sins), dim)

    def _trig_pass(self, x, value: bool, jacobian: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
        """One trig pass per coordinate giving the value, the Jacobian or both."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x) if value else None
        jac = np.zeros(x.shape + (self.dim,)) if jacobian else None
        for i, k in enumerate(self.freqs):
            if k.size == 0:
                continue
            theta = 2.0 * np.pi * ((x @ k.T) % 1.0)
            c, s = np.cos(theta), np.sin(theta)
            if value:
                out[..., i] = c @ self.cos_coeffs[i] + s @ self.sin_coeffs[i]
            if jacobian:
                jac[..., i, :] = 2.0 * np.pi * ((-s * self.cos_coeffs[i] + c * self.sin_coeffs[i]) @ k)
        return out, jac

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self._trig_pass(x, value=True, jacobian=False)[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._trig_pass(x, value=False, jacobian=True)[1]

    def evaluate_and_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._trig_pass(x, value=True, jacobian=True)

    def sup_bound(self) -> float:
        """Rigorous sup of the Euclidean norm: per-coordinate amplitude sums."""
        per_coord = [
            float(np.sum(np.hypot(c, s)))
            for c, s in zip(self.cos_coeffs, self.sin_coeffs)
        ]
        return float(np.linalg.norm(per_coord))


@dataclass(frozen=True, eq=False)
class TorusMap:
    """Hyperbolic torus endomorphism F = A + displacement on the lift.

    Exactly one of `perturbation` (F = A x + eps p(x)) or `conjugator`
    (F = G o A o G^{-1} with G = Id + eps q) is set; with neither, the map is
    linear. epsilon scales the stored field in both cases.
    """

    model: LinearModel
    epsilon: float = 0.0
    perturbation: TrigField | None = None
    conjugator: TrigField | None = None
    label: str = "custom"

    def __post_init__(self):
        if self.perturbation is not None and self.conjugator is not None:
            raise ValueError("a map is either perturbed (terms) or conjugated (conjugator_terms), not both")

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def degree(self) -> int:
        return self.model.degree

    @property
    def is_linear(self) -> bool:
        return self.epsilon == 0.0 or (self.perturbation is None and self.conjugator is None)

    def displacement_sup_bound(self, grid_sup: float) -> float:
        """Sup bound of |phi| given its largest value on a grid, grid_sup.

        A perturbation's bound is exact, from its trig amplitudes; a conjugated
        map's phi = G o A o G^{-1} - A has no closed form, so its grid value is
        padded.
        """
        if self.perturbation is not None:
            return abs(self.epsilon) * self.perturbation.sup_bound()
        if self.conjugator is not None:
            return 1.05 * grid_sup + 1e-15
        return 0.0

    # -- the chart -----------------------------------------------------------
    #
    # Every map is F = C o S o C^{-1} on the lift, with a chart C and a chart
    # step S: a conjugated map has C = G and S = A, any other map C = Id and
    # S = A + eps p. Since C(z) + k = C(z + k), integer shifts and wraps pass
    # through C, so each method below solves C^{-1} once, steps with S or
    # S^{-1} in the chart and maps its points out with one batched C or DC
    # pass. Only these primitives tell the representations apart.

    @property
    def _perturbed(self) -> bool:
        """Whether the chart step S = A + eps p is nonlinear."""
        return self.perturbation is not None and self.epsilon != 0.0

    def _map_out(self, z: np.ndarray, fn) -> np.ndarray:
        """fn applied to a stack of chart points (..., d) as one batch."""
        out = fn(z.reshape(-1, self.dim))
        return out.reshape(z.shape[:-1] + out.shape[1:])

    def _chart(self, z: np.ndarray) -> np.ndarray:
        """C(z) on a stack of chart points (..., d)."""
        if self.conjugator is None:
            return z
        return z + self.epsilon * self._map_out(z, self.conjugator.evaluate)

    def _chart_inverse(self, x: np.ndarray) -> np.ndarray:
        """C^{-1}(x) on a stack of lift points (..., d).

        G^{-1} runs Newton per row: a row stops at its own tolerance, so its
        value does not depend on the batch. The whole batch is evaluated and
        solved every pass and a converged row takes a zero step, so no row
        takes numpy's one-row product path.
        """
        if self.conjugator is None:
            return x
        y = x.reshape(-1, self.dim)
        eye = np.eye(self.dim)
        z = y.copy()
        # row maxima folded over the d columns: max(axis=1) over so short an axis is ~10x slower
        scale = _NEWTON_TOL * functools.reduce(np.maximum, np.abs(y).T, 1.0)
        for _ in range(_NEWTON_MAX_ITER):
            val, jac = self.conjugator.evaluate_and_jacobian(z)
            res = z + self.epsilon * val - y
            active = functools.reduce(np.maximum, np.abs(res).T) > scale
            if not active.any():
                return z.reshape(x.shape)
            z -= np.where(active[:, None], solve_batched(eye + self.epsilon * jac, res), 0.0)
        raise NoConvergence(f"inner diffeo inversion stalled at residual {float(np.abs(res).max()):.3e}")

    def _step(self, z: np.ndarray, jacobian: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(S z, S z - A z, DS(z)) at chart points (n, d) from one trig pass;
        DS is None unless `jacobian`."""
        a = self.model.array
        out = z @ a.T
        if not self._perturbed:
            jac = np.broadcast_to(a, z.shape + (self.dim,)).copy() if jacobian else None
            return out, np.zeros_like(z), jac
        if jacobian:
            val, dval = self.perturbation.evaluate_and_jacobian(z)
        else:
            val, dval = self.perturbation.evaluate(z), None
        disp = self.epsilon * val
        return out + disp, disp, None if dval is None else a + self.epsilon * dval

    def _step_inverse(self, y: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """(x, S x - A x) with S x = y at chart points (n, d).

        A linear step solves A x = y. A trig step runs a batched Newton from
        that seed with one trig pass per update for S and DS on the whole
        batch, until every row's residual is within tol of its own scale, and
        reads the displacement off the last pass.
        """
        a = self.model.array
        x = np.linalg.solve(a, y.T).T
        if not self._perturbed:
            return x, np.zeros_like(x)
        scale = np.maximum(1.0, np.abs(y).max(axis=1))
        for step in range(_NEWTON_MAX_ITER + 1):
            val, dval = self.perturbation.evaluate_and_jacobian(x)
            disp, jac = self.epsilon * val, a + self.epsilon * dval
            res = x @ a.T + disp - y
            bad = np.abs(res).max(axis=1) > tol * scale
            if not bad.any():
                return x, disp
            if step == _NEWTON_MAX_ITER:
                raise NoConvergence(f"lift inversion stalled at residual {float(np.abs(res).max()):.3e}")
            det = np.linalg.det(jac[bad])
            if np.any(np.abs(det) < 1e-14):
                idx = int(np.argmin(np.abs(det)))
                raise NotLocalDiffeo(f"Jacobian determinant {det[idx]:.3e} near x = {x[bad][idx]}")
            x[bad] -= solve_batched(jac[bad], res[bad])

    def _df(self, z: np.ndarray, w: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """DF^n at C(z) = DC(w) DS^n DC(z)^{-1}, for chart points z and
        w = S^n z (up to an integer shift) and ds = DS^n(z); stacks (..., d)."""
        if self.conjugator is None:
            return ds
        dc = np.eye(self.dim) + self.epsilon * self._map_out(np.stack([w, z]), self.conjugator.jacobian)
        return (dc[0] @ ds) @ inv_batched(dc[1])

    def _chart_jacobian(self, z: np.ndarray) -> np.ndarray:
        """DF at C(z) for chart points z (n, d)."""
        w, _, ds = self._step(z, jacobian=True)
        return self._df(z, w, ds)

    def _displacements(self, chart: np.ndarray, disp: np.ndarray) -> np.ndarray:
        """phi at C(chart[j]), j < m, along a forward chart orbit chart (m + 1, n, d),
        chart[j + 1] = S chart[j] up to an integer shift, with disp (m, n, d) the
        step displacements S z - A z at chart[:-1].

        phi(C z) = C(S z) - A C(z); for C = G that is eps (q(S z) - A q(z)).
        """
        if self.conjugator is None:
            return disp
        q = self._map_out(chart, self.conjugator.evaluate)
        return self.epsilon * (q[1:] - q[:-1] @ self.model.array.T)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """Lift value F(x); batched."""
        return self.evaluate_with_displacement(x)[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._chart_jacobian(self._chart_inverse(x))

    def evaluate_with_displacement(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F(x), phi(x)) from one chart inverse and one trig pass; batched."""
        out, disp, _ = self._step(self._chart_inverse(x), jacobian=False)
        out = self._chart(out)
        if self.conjugator is not None:
            # phi read off F, which the sup bound of `displacement_sup` measures
            disp = out - x @ self.model.array.T
        return out, disp

    def displacement(self, x) -> np.ndarray:
        """phi(x) = F(x) - A x, Z^d-periodic."""
        return self.evaluate_with_displacement(x)[1]

    def torus_step(self, t: np.ndarray) -> np.ndarray:
        """One forward step of the induced torus map."""
        return wrap(self.evaluate(t))

    # -- orbit walks ---------------------------------------------------------

    def orbit_points(self, starts: np.ndarray, length: int) -> np.ndarray:
        """Torus orbit segments, shape (length, n, d); orbit_points[0] = wrap(starts)."""
        starts = wrap(starts)
        chart = np.empty((length,) + starts.shape)
        z = self._chart_inverse(starts)
        for t in range(length):
            chart[t] = z
            z = wrap(self._step(z, jacobian=False)[0])
        return wrap(self._chart(chart))

    def orbit_jacobians(self, starts: np.ndarray, length: int, block: int):
        """DF along `length` steps of forward torus orbits, yielded in time
        blocks of at most `block` steps, (m, n, d, d) each.

        Step j holds DF(t_j) for t_{j+1} = wrap(F(t_j)) from t_0 = starts,
        taken as lift points: their torus cell would round the first Jacobian
        differently. The walk runs on in the chart from block to block, so
        C^{-1} is solved once.
        """
        z = self._chart_inverse(starts)
        for lo in range(0, length, block):
            m = min(block, length - lo)
            chart, ds = np.empty((m + 1,) + z.shape), np.empty((m,) + z.shape + (self.dim,))
            chart[0] = z
            for t in range(m):
                w, _, ds[t] = self._step(chart[t], jacobian=True)
                chart[t + 1] = wrap(w)
            z = chart[m]
            yield self._df(chart[:-1], chart[1:], ds)

    def orbit_displacements(self, starts: np.ndarray, length: int) -> np.ndarray:
        """phi along torus orbits, shape (length, n, d): phi(t_j) for t_0 = wrap(starts)
        and t_{j+1} = wrap(F(t_j))."""
        t = wrap(starts)
        chart, disp = np.empty((length + 1,) + t.shape), np.empty((length,) + t.shape)
        chart[0] = self._chart_inverse(t)
        for j in range(length):
            w, disp[j], _ = self._step(chart[j], jacobian=False)
            chart[j + 1] = wrap(w)
        return self._displacements(chart, disp)

    def preimage_displacements(self, y: np.ndarray, length: int) -> np.ndarray:
        """phi along lift backward orbits, shape (length, n, d): phi(x_j) for
        x_0 = y and x_j = F^{-1}(x_{j-1}), j = 1 .. length."""
        # the backward orbit in forward time order: chart[length - j] is x_j in the chart
        chart, disp = np.empty((length + 1,) + y.shape), np.empty((length,) + y.shape)
        chart[length] = self._chart_inverse(y)
        for j in range(length, 0, -1):
            chart[j - 1], disp[j - 1] = self._step_inverse(chart[j], _INVERT_TOL)
        return self._displacements(chart, disp)[::-1]

    def orbit_offsets(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offsets of a chart orbit guess z (2m + 1, n, d) from the linear model:
        the step displacements S z - A z at z[:-1], (2m, n, d), and the chart
        offsets C(z) - z at z[0], z[m] and z[-1] only, (3, n, d).

        Both are Z^d-periodic, so any row of z may be wrapped or on the lift.
        A conjugated map's steps are linear, so it evaluates only the chart.
        """
        ends = z[[0, z.shape[0] // 2, -1]]
        if self.conjugator is None:
            offsets = np.zeros_like(ends)
        else:
            offsets = self.epsilon * self._map_out(ends, self.conjugator.evaluate)
        return self._map_out(z[:-1], lambda p: self._step(p, jacobian=False)[1]), offsets

    def iterate_with_jacobian(self, x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(F^n(x), DF^n(x)) on the lift, batched."""
        z = w = self._chart_inverse(x)
        acc = np.broadcast_to(np.eye(self.dim), x.shape + (self.dim,))
        for _ in range(n):
            w, _, ds = self._step(w, jacobian=True)
            acc = ds @ acc
        return self._chart(w), self._df(z, w, acc)

    def branch_jacobians(self, starts: np.ndarray, shifts: np.ndarray, tol: float) -> np.ndarray:
        """DF along coded preimage walks, shape (depth, n, d, d).

        Step j goes from t_j (t_0 = starts) to t_{j+1} = wrap(F^{-1}(t_j + shifts[j]))
        and row j holds DF(t_{j+1}); shifts (depth, n, d) are integer vectors.
        A trig map inverts each step to `tol`.
        """
        z = self._chart_inverse(starts)
        trail = np.empty(shifts.shape)
        for j, shift in enumerate(shifts):
            trail[j] = z = wrap(self._step_inverse(z + shift, tol)[0])
        return self._map_out(trail, self._chart_jacobian)

    def wrapped_walk(self, starts: np.ndarray, steps: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
        """Walk y = F(x) (F^{-1} with `inverse`) `steps` times, wrapping each step.

        Returns the end points in [0, 1)^d and the integer offsets, (steps, n, d):
        offsets[j] = floor(y_j), and the next step starts from y_j - offsets[j].
        """
        ends, offsets = starts, np.empty((steps,) + starts.shape)
        z = self._chart_inverse(starts)
        for j in range(steps):
            z = self._step_inverse(z, _INVERT_TOL)[0] if inverse else self._step(z, jacobian=False)[0]
            y = self._chart(z)
            offsets[j] = np.floor(y)
            ends, z = y - offsets[j], z - offsets[j]
        return ends, offsets

    def shifted_walk(self, x: np.ndarray, shifts, inverse: bool) -> np.ndarray:
        """x <- F(x + k) (F^{-1} with `inverse`) for each k in shifts, in order.

        x (..., d) is any stack of lift points; each k broadcasts against it.
        """
        z = self._chart_inverse(x)
        for k in shifts:
            flat = (z + k).reshape(-1, self.dim)
            step = self._step_inverse(flat, _INVERT_TOL) if inverse else self._step(flat, jacobian=False)
            z = step[0].reshape(z.shape)
        return self._chart(z)

    # -- lift inversion ------------------------------------------------------

    def invert(self, y: np.ndarray) -> np.ndarray:
        """Solve F(x) = y on the lift to _PREIMAGE_TOL; unique since the lift is a diffeo.

        A trig step verifies its Newton residual row by row (`_step_inverse`).
        A linear step is exact algebra, so the round trip through F verifies
        it, each row against its own scale so that its verdict does not depend
        on its batch.
        """
        x = self._chart(self._step_inverse(self._chart_inverse(y), _PREIMAGE_TOL)[0])
        if not self._perturbed:
            scale = np.maximum(1.0, np.abs(y).max(axis=1))
            worst = float((np.abs(self.evaluate(x) - y).max(axis=1) / scale).max())
            if worst > 100.0 * _PREIMAGE_TOL:
                raise NoConvergence(f"lift inversion verified residual {worst:.3e} exceeds tolerance")
        return x

    def preimages(self, t: np.ndarray) -> np.ndarray:
        """All degree-many torus preimages of each point; shape (n, degree, d).

        Branch j corresponds to target lift t + r_j over the fixed coset
        transversal; the ordering is therefore deterministic.
        """
        reps = coset_representatives(self.model.matrix)
        n, deg, d = t.shape[0], reps.shape[0], self.dim
        targets = (t[:, None, :] + reps[None, :, :]).reshape(n * deg, d)
        try:
            pre = wrap(self.invert(targets))
        except (NoConvergence, NotLocalDiffeo) as exc:
            raise IncompleteEnumeration(f"preimage solve failed: {exc}") from exc
        pre = pre.reshape(n, deg, d)
        first, second = np.triu_indices(deg, 1)
        collided = torus_distance(pre[:, first], pre[:, second]) < _PREIMAGE_TOL
        if collided.any():
            # the first collision in (row, i, j) order
            row, pair = divmod(int(np.argmax(collided)), first.size)
            i, j = first[pair], second[pair]
            raise IncompleteEnumeration(
                f"branches {i} and {j} collided at {pre[row, i]} (distance < {_PREIMAGE_TOL})"
            )
        return pre


def local_diffeo_margin(f: TorusMap) -> tuple[float, np.ndarray]:
    """Minimum |det DF| over a grid and its argmin point."""
    pts = grid_points(f.dim, 64 if f.dim == 2 else 24)
    det = np.abs(np.linalg.det(f.jacobian(pts)))
    idx = int(np.argmin(det))
    return float(det[idx]), pts[idx]


# -- cone-field certificate ---------------------------------------------------


@dataclass(frozen=True)
class ConeCertificate:
    """Grid cone-field verification record; margins are minima over the scan.

    This is a numerical check at grid resolution, not a computer-assisted
    proof; grid_sensitivity reports how much the worst margin moves between
    neighbouring grid points.
    """

    certified: bool
    grid_n: int
    iterations: int
    cone_slope: float
    expansion_min: float
    slope_margin_min: float
    backward_expansion_min: float
    backward_slope_margin_min: float
    grid_sensitivity: float


def _sphere_mesh(dim: int, n_dirs: int) -> np.ndarray:
    """Unit directions in a 1- or 2-dimensional side of the splitting of a model in scope."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    th = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def _cone_directions(model: LinearModel, slope: float, n_dirs: int, unstable: bool) -> np.ndarray:
    """Unit-core directions v = core + s*slope*cross over boundary and interior shells."""
    b_core = model.unstable_subspace if unstable else model.stable_basis
    b_cross = model.stable_basis if unstable else model.unstable_subspace
    core = _sphere_mesh(b_core.shape[1], n_dirs) @ b_core.T
    cross = _sphere_mesh(b_cross.shape[1], n_dirs) @ b_cross.T
    dirs = [core]
    for shell in (0.5, 1.0):
        combo = core[:, None, :] + shell * slope * cross[None, :, :]
        dirs.append(combo.reshape(-1, model.dim))
    return np.concatenate(dirs, axis=0)


def _chain_backward(f: TorusMap, pts: np.ndarray, n: int) -> np.ndarray:
    """DF^n at the depth-n principal-branch preimage of each point.

    With z_0 = pts and z_k the branch preimage of z_{k-1}, the chain rule
    gives D(F^n)(z_n) = DF(z_1) DF(z_2) ... DF(z_n).
    """
    orbit = [pts]
    t = pts
    for _ in range(n):
        t = f.preimages(t)[:, 0, :]
        orbit.append(t)
    acc = np.broadcast_to(np.eye(f.dim), (pts.shape[0], f.dim, f.dim)).copy()
    for z in orbit[1:]:
        acc = acc @ f.jacobian(z)
    return acc


# cone-field certificate: cone slope, iterations of DF, directions per sphere mesh
_CONE_SLOPE = 1.0
_CONE_ITERATIONS = 1
_CONE_DIRECTIONS = 12


def anosov_certificate(f: TorusMap) -> ConeCertificate:
    """Verify invariant cone fields on a grid.

    Forward check: DF^_CONE_ITERATIONS maps the unstable cone of the linear
    splitting strictly into the half-slope cone while expanding the unstable
    projection by a factor > 1. Backward check: the inverse chain along the
    principal preimage branch does the same for the stable cone.

    Raises CertificationFailed (witness attached) if any sampled direction
    violates either containment or expansion.
    """
    model = f.model
    grid_n = 64 if f.dim == 2 else 24
    pts = grid_points(f.dim, grid_n)
    p_s, p_u = model.stable_projection, model.unstable_projection
    half = 0.5 * _CONE_SLOPE

    def scan(mats: np.ndarray, dirs: np.ndarray, proj_keep: np.ndarray, proj_off: np.ndarray):
        imgs = np.einsum("nij,kj->nki", mats, dirs)
        keep = np.linalg.norm(imgs @ proj_keep.T, axis=2)
        off = np.linalg.norm(imgs @ proj_off.T, axis=2)
        keep0 = np.linalg.norm(dirs @ proj_keep.T, axis=1)
        expansion = keep / keep0[None, :]
        margin = half - off / keep
        return expansion, margin

    u_dirs = _cone_directions(model, _CONE_SLOPE, _CONE_DIRECTIONS, unstable=True)
    fwd = f.iterate_with_jacobian(pts, _CONE_ITERATIONS)[1]
    u_exp, u_margin = scan(fwd, u_dirs, p_u, p_s)

    witness = None
    if u_margin.min() <= 0.0 or u_exp.min() <= 1.0:
        n_idx, k_idx = np.unravel_index(int(np.argmin(u_margin)), u_margin.shape)
        witness = {
            "side": "unstable",
            "point": pts[n_idx].tolist(),
            "direction": u_dirs[k_idx].tolist(),
            "slope_margin": float(u_margin.min()),
            "expansion_min": float(u_exp.min()),
        }

    s_exp_min, s_margin_min = float("nan"), float("nan")
    if witness is None:
        s_dirs = _cone_directions(model, _CONE_SLOPE, _CONE_DIRECTIONS, unstable=False)
        try:
            back = np.linalg.inv(_chain_backward(f, pts, _CONE_ITERATIONS))
        except (IncompleteEnumeration, np.linalg.LinAlgError) as exc:
            raise CertificationFailed(
                f"backward branch construction failed: {exc}",
                witness={"side": "stable", "reason": str(exc)},
            ) from exc
        s_exp, s_margin = scan(back, s_dirs, p_s, p_u)
        s_exp_min, s_margin_min = float(s_exp.min()), float(s_margin.min())
        if s_margin.min() <= 0.0 or s_exp.min() <= 1.0:
            n_idx, k_idx = np.unravel_index(int(np.argmin(s_margin)), s_margin.shape)
            witness = {
                "side": "stable",
                "point": pts[n_idx].tolist(),
                "direction": s_dirs[k_idx].tolist(),
                "slope_margin": float(s_margin.min()),
                "expansion_min": float(s_exp.min()),
            }

    per_point = u_margin.min(axis=1).reshape((grid_n,) * f.dim)
    sens = 0.0
    for axis in range(f.dim):
        sens = max(sens, float(np.abs(np.diff(per_point, axis=axis)).max()))

    if witness is not None:
        raise CertificationFailed(f"cone check failed on the {witness['side']} side", witness=witness)
    return ConeCertificate(
        certified=True,
        grid_n=grid_n,
        iterations=_CONE_ITERATIONS,
        cone_slope=_CONE_SLOPE,
        expansion_min=float(u_exp.min()),
        slope_margin_min=float(u_margin.min()),
        backward_expansion_min=s_exp_min,
        backward_slope_margin_min=s_margin_min,
        grid_sensitivity=sens,
    )


# -- fixture catalog ----------------------------------------------------------

_A0 = ((3, 1), (1, 1))
_A1 = ((2, 1, 0), (1, 1, 0), (0, 0, 2))
_CUBIC = ((0, 0, -2), (1, 0, 1), (0, 1, 6))

# name -> (matrix, the TorusMap field its terms set, terms); a fixture without
# terms is linear and exists only at epsilon 0
_CATALOG = {
    "linear_A0": (_A0, None, None),
    "shear_A0": (_A0, "perturbation", {1: [((1, 0), 0.0, 1.0)]}),
    "conjugated_A0": (_A0, "conjugator", {0: [((0, 1), 0.0, 0.1)], 1: [((1, 0), 0.0, 0.1)]}),
    "product_T3": (_A1, "perturbation", {1: [((1, 0, 0), 0.0, 1.0)]}),
    "cubic_companion": (_CUBIC, None, None),
}

FIXTURE_NAMES = (*_CATALOG, "custom")

_CUSTOM_KEYS = ("matrix", "terms", "conjugator_terms", "label")


def check_fixture(name: str, epsilon: float, custom: dict | None = None) -> int:
    """Torus dimension of the map `fixture_catalog(name, epsilon, custom)` builds, or
    ValueError saying why fixture_catalog refuses those arguments. A named fixture
    is answered from the catalog table without analysing its matrix; a custom one
    is built, which takes well under a millisecond."""
    if name == "custom":
        return _custom_fixture(epsilon, custom).dim
    if name not in _CATALOG:
        raise UnknownFixture(f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    if custom is not None:
        raise ValueError(f"{name} is a named fixture and would ignore this mapping; "
                         "only fixture.name: custom is built from one")
    matrix, kind, _ = _CATALOG[name]
    if kind is None and epsilon != 0.0:
        raise ValueError(f"{name} takes no perturbation scale")
    return len(matrix)


def fixture_catalog(name: str, epsilon: float, custom: dict | None = None) -> TorusMap:
    """Construct a named fixture map; ValueError when check_fixture refuses it.

    linear_A0         the 2x2 linear model, eigenvalues 2 +- sqrt(2)
    shear_A0(eps)     A0 plus the vertical shear (0, eps sin 2 pi x)
    conjugated_A0(eps) smooth conjugate g A0 g^{-1}, g = Id + eps(sin 2 pi y, sin 2 pi x)/10
    product_T3(eps)   block product on T^3: sheared invertible 2x2 block x doubling circle factor
    cubic_companion   3x3 companion of x^3 - 6x^2 - x + 2 (two stable directions)
    custom            built from `custom` dict: matrix, terms or conjugator_terms, label
    """
    if name == "custom":
        return _custom_fixture(epsilon, custom)
    check_fixture(name, epsilon, custom)
    matrix, kind, terms = _CATALOG[name]
    model = _model_in_scope(matrix)
    if kind is None:
        return TorusMap(model=model, label=name)
    return TorusMap(model=model, epsilon=epsilon, label=f"{name}({epsilon:g})",
                    **{kind: TrigField.from_terms(model.dim, terms)})


def _model_in_scope(matrix) -> LinearModel:
    """The analysed matrix, or ValueError naming the hypothesis of the paper it breaks:
    the maps are non-invertible, have a stable direction and, with two of them, a
    real, simple stable spectrum. In d <= 3 a repeated stable eigenvalue would be
    an integer inside the unit circle, so only a complex pair breaks the last."""
    model = analyze_matrix(matrix)
    m = model.matrix
    if model.degree == 1:
        raise ValueError(f"matrix {m} has |det| = 1: one preimage per point makes every branch code "
                         "the same and the branch spread 0 by construction; the maps here have |det| >= 2")
    if model.stable_dim == 0:
        raise ValueError(f"matrix {m} has no eigenvalue inside the unit circle: an expanding map "
                         "has no stable direction")
    if len(model.stable_eigenvalues) < model.stable_dim:
        raise ValueError(f"matrix {m} has a complex stable pair; with two stable directions the paper "
                         "assumes a real, simple stable spectrum")
    return model


def _custom_fixture(epsilon: float, custom) -> TorusMap:
    if not isinstance(custom, dict) or "matrix" not in custom:
        raise ValueError("needs a 'matrix' entry")
    unknown = [key for key in custom if key not in _CUSTOM_KEYS]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; a custom fixture takes {', '.join(_CUSTOM_KEYS)}")
    model = _model_in_scope(custom["matrix"])
    fields_ = {
        kind: TrigField.from_terms(model.dim, _parse_terms(key, custom[key], model.dim))
        for kind, key in (("perturbation", "terms"), ("conjugator", "conjugator_terms"))
        if custom.get(key)
    }
    return TorusMap(model=model, epsilon=epsilon, label=custom.get("label", "custom"), **fields_)


def _parse_terms(key: str, terms, dim: int) -> dict[int, list[tuple]]:
    """A custom fixture's `key` entry, coordinate index -> [[k_1..k_d], cos
    coefficient, sin coefficient] terms; ValueError names a malformed part."""
    if not isinstance(terms, dict):
        raise ValueError(f"{key} must map coordinate indices to term lists, got {terms!r}")
    for coord, entries in terms.items():
        if isinstance(coord, bool) or not isinstance(coord, int) or not 0 <= coord < dim:
            raise ValueError(f"{key}: coordinate index {coord!r} is not an integer in 0..{dim - 1}")
        for e in entries if isinstance(entries, (list, tuple)) else [entries]:
            if not (isinstance(e, (list, tuple)) and len(e) == 3 and isinstance(e[0], (list, tuple))
                    and len(e[0]) == dim
                    and all(isinstance(v, Real) and not isinstance(v, bool) for v in (*e[0], *e[1:]))):
                raise ValueError(f"{key}: term {e!r} of coordinate {coord} is not "
                                 f"[[k_1..k_{dim}], cos coefficient, sin coefficient]")
    return {coord: [(tuple(e[0]), float(e[1]), float(e[2])) for e in entries]
            for coord, entries in terms.items()}
