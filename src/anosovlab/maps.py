"""Torus map fixtures: lifts, Jacobians, preimages, cone-field certificates.

A map is an integer hyperbolic linear part A plus a Z^d-periodic displacement.
Two representations are supported: an explicit trigonometric-polynomial
perturbation F = A + eps*p, and a conjugated form F = G o A o G^{-1} with
G = Id + eps*q a trig diffeomorphism (the displacement is then evaluated
pointwise; it is still Z^d-periodic but not a finite trig polynomial).

All evaluation paths are batched: points are (n, d) arrays, Jacobians
(n, d, d). Lifts commute with integer translations by construction, so
evaluation at |x| ~ 1e6 (backward-orbit work) only needs trig arguments
reduced mod 1, which happens inside the field evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


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
            raise ValueError("a map is either perturbative or conjugated, not both")

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def degree(self) -> int:
        return self.model.degree

    @property
    def is_linear(self) -> bool:
        return self.epsilon == 0.0 or (self.perturbation is None and self.conjugator is None)

    # -- inner diffeo G = Id + eps q (conjugated representation) ------------

    def _g(self, x: np.ndarray) -> np.ndarray:
        return x + self.epsilon * self.conjugator.evaluate(x)

    def _g_jacobian(self, x: np.ndarray) -> np.ndarray:
        d = self.dim
        return np.eye(d) + self.epsilon * self.conjugator.jacobian(x)

    def _g_inverse(self, y: np.ndarray) -> np.ndarray:
        """Newton per row: a row stops at its own tolerance, so its value does not
        depend on the batch. The whole batch is evaluated and solved every pass
        and a converged row takes a zero step, so no row takes numpy's one-row
        product path."""
        eye = np.eye(self.dim)
        z = y.copy()
        # row maxima folded over the d columns: max(axis=1) over so short an axis is ~10x slower
        scale = _NEWTON_TOL * functools.reduce(np.maximum, np.abs(y).T, 1.0)
        for _ in range(_NEWTON_MAX_ITER):
            val, jac = self.conjugator.evaluate_and_jacobian(z)
            res = z + self.epsilon * val - y
            active = functools.reduce(np.maximum, np.abs(res).T) > scale
            if not active.any():
                return z
            z -= np.where(active[:, None], solve_batched(eye + self.epsilon * jac, res), 0.0)
        raise NoConvergence(f"inner diffeo inversion stalled at residual {float(np.abs(res).max()):.3e}")

    def _inner_step(self, z: np.ndarray, inverse: bool) -> np.ndarray:
        """A z, or A^{-1} z with `inverse`, on a stack of inner points (..., d)."""
        a = self.model.array
        if inverse:
            return np.linalg.solve(a, z.reshape(-1, self.dim).T).T.reshape(z.shape)
        return z @ a.T

    def _inner_displacement(self, q_z: np.ndarray, q_az: np.ndarray) -> np.ndarray:
        """phi(G(z)) = G(A z) - A G(z) = eps (q(A z) - A q(z)), from q at z and at A z."""
        return self.epsilon * (q_az - q_z @ self.model.array.T)

    # -- evaluation ----------------------------------------------------------

    def _conjugated_jacobian(self, y: np.ndarray, w: np.ndarray, power: np.ndarray | None = None) -> np.ndarray:
        """DF^n at x = G(y) given the inner point y = G^{-1}(x), w = A^n y and
        power = A^n (default A)."""
        power = self.model.array if power is None else power
        return (self._g_jacobian(w) @ power) @ inv_batched(self._g_jacobian(y))

    def evaluate(self, x) -> np.ndarray:
        """Lift value F(x); batched."""
        xb, single = _as_batch(x)
        a = self.model.array
        if self.conjugator is not None:
            y = self._g_inverse(xb)
            out = self._g(y @ a.T)
        else:
            out = xb @ a.T
            if self.perturbation is not None and self.epsilon != 0.0:
                out = out + self.epsilon * self.perturbation.evaluate(xb)
        return out[0] if single else out

    def jacobian(self, x) -> np.ndarray:
        xb, single = _as_batch(x)
        a = self.model.array
        if self.conjugator is not None:
            y = self._g_inverse(xb)
            jac = self._conjugated_jacobian(y, y @ a.T)
        else:
            jac = np.broadcast_to(a, xb.shape + (self.dim,)).copy()
            if self.perturbation is not None and self.epsilon != 0.0:
                jac = jac + self.epsilon * self.perturbation.jacobian(xb)
        return jac[0] if single else jac

    def evaluate_with_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(F(x), DF(x)) on the lift sharing one inner inverse solve or trig pass; batched."""
        xb, single = _as_batch(x)
        a = self.model.array
        if self.conjugator is not None:
            y = self._g_inverse(xb)
            w = y @ a.T
            out, jac = self._g(w), self._conjugated_jacobian(y, w)
        elif self.is_linear:
            out, jac = self.evaluate(xb), self.jacobian(xb)
        else:
            val, dval = self.perturbation.evaluate_and_jacobian(xb)
            out = xb @ a.T + self.epsilon * val
            jac = np.broadcast_to(a, xb.shape + (self.dim,)) + self.epsilon * dval
        return (out[0], jac[0]) if single else (out, jac)

    def step_with_jacobian(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(wrap(F(t)), DF(t)) sharing one inner inverse solve or trig pass; batched."""
        out, jac = self.evaluate_with_jacobian(t)
        return wrap(out), jac

    def invert_with_jacobian(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(x, DF(x)) with F(x) = y; the conjugated form reuses the inner point."""
        yb = np.asarray(y, dtype=float)
        if self.conjugator is not None:
            z = np.linalg.solve(self.model.array, self._g_inverse(yb).T).T
            x = self._g(z)
            return x, self._conjugated_jacobian(z, z @ self.model.array.T)
        x, _, jac = self.invert_with_displacement(yb)
        return x, jac

    def evaluate_with_displacement(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(F(x), phi(x)) from one inner inverse solve or trig pass; batched."""
        xb, single = _as_batch(x)
        linear = xb @ self.model.array.T
        if self.conjugator is not None:
            out = self.evaluate(xb)
            disp = out - linear
        elif self.perturbation is not None and self.epsilon != 0.0:
            disp = self.epsilon * self.perturbation.evaluate(xb)
            out = linear + disp
        else:
            out, disp = linear, np.zeros_like(xb)
        return (out[0], disp[0]) if single else (out, disp)

    def displacement(self, x) -> np.ndarray:
        """phi(x) = F(x) - A x, Z^d-periodic."""
        return self.evaluate_with_displacement(x)[1]

    def torus_step(self, t: np.ndarray) -> np.ndarray:
        """One forward step of the induced torus map."""
        return wrap(self.evaluate(t))

    # -- orbit walks ---------------------------------------------------------
    #
    # A conjugated map F = G o A o G^{-1} is walked in the chart G. Since
    # G(z) + k = G(z + k), every lift or torus orbit of F is G of an orbit of A,
    # and integer shifts and wraps pass through G unchanged: each walk solves
    # G^{-1} once, steps with A or A^{-1}, and maps all its points out in one
    # batched pass. Every other map runs its per-step loop.

    def _inner_torus_orbit(self, starts: np.ndarray, length: int) -> np.ndarray:
        """Wrapped inner orbit z_t = A^t G^{-1}(starts) mod 1, shape (length, n, d)."""
        a = self.model.array
        z = self._g_inverse(starts)
        inner = np.empty((length,) + starts.shape)
        for t in range(length):
            inner[t] = z
            z = wrap(z @ a.T)
        return inner

    def _map_out(self, inner: np.ndarray, fn) -> np.ndarray:
        """fn applied to a stack of inner points (..., d) as one batch."""
        out = fn(inner.reshape(-1, self.dim))
        return out.reshape(inner.shape[:-1] + out.shape[1:])

    def orbit_points(self, starts: np.ndarray, length: int) -> np.ndarray:
        """Torus orbit segments, shape (length, n, d); orbit_points[0] = starts."""
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        if self.conjugator is not None:
            return wrap(self._map_out(self._inner_torus_orbit(starts, length), self._g))
        out = np.empty((length, starts.shape[0], self.dim))
        x = wrap(starts)
        for t in range(length):
            out[t] = x
            x = self.torus_step(x)
        return out

    def orbit_displacements(self, starts: np.ndarray, length: int) -> np.ndarray:
        """phi along torus orbits, shape (length, n, d): phi(t_j) for t_0 = wrap(starts)
        and t_{j+1} = wrap(F(t_j))."""
        t = wrap(np.atleast_2d(np.asarray(starts, dtype=float)))
        if self.conjugator is not None:
            q = self._map_out(self._inner_torus_orbit(t, length + 1), self.conjugator.evaluate)
            return self._inner_displacement(q[:-1], q[1:])
        out = np.empty((length,) + t.shape)
        for j in range(length):
            image, out[j] = self.evaluate_with_displacement(t)
            t = wrap(image)
        return out

    def preimage_displacements(self, y: np.ndarray, length: int) -> np.ndarray:
        """phi along lift backward orbits, shape (length, n, d): phi(x_j) for
        x_0 = y and x_j = F^{-1}(x_{j-1}), j = 1 .. length."""
        yb = np.atleast_2d(np.asarray(y, dtype=float))
        if self.conjugator is not None:
            inner = np.empty((length + 1,) + yb.shape)
            inner[0] = self._g_inverse(yb)
            for j in range(length):
                inner[j + 1] = self._inner_step(inner[j], inverse=True)
            q = self._map_out(inner, self.conjugator.evaluate)
            return self._inner_displacement(q[1:], q[:-1])
        out = np.empty((length,) + yb.shape)
        for j in range(length):
            yb, out[j], _ = self.invert_with_displacement(yb)
        return out

    def iterate_with_jacobian(self, x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(F^n(x), DF^n(x)) on the lift, batched."""
        xb = np.asarray(x, dtype=float)
        if self.conjugator is not None:
            z = self._g_inverse(xb)
            w = z
            for _ in range(n):
                w = self._inner_step(w, inverse=False)
            power = np.linalg.matrix_power(self.model.array, n)
            return self._g(w), self._conjugated_jacobian(z, w, power)
        acc = np.broadcast_to(np.eye(self.dim), xb.shape + (self.dim,)).copy()
        for _ in range(n):
            xb, jac = self.evaluate_with_jacobian(xb)
            acc = jac @ acc
        return xb, acc

    def branch_jacobians(self, starts: np.ndarray, shifts: np.ndarray, tol: float) -> np.ndarray:
        """DF along coded preimage walks, shape (depth, n, d, d).

        Step j goes from t_j (t_0 = starts) to t_{j+1} = wrap(F^{-1}(t_j + shifts[j]))
        and row j holds DF(t_{j+1}); shifts (depth, n, d) are integer vectors.
        A trig map inverts each step to `tol`.
        """
        if self.conjugator is not None:
            z = self._g_inverse(starts)
            inner = np.empty(shifts.shape)
            for j, shift in enumerate(shifts):
                inner[j] = z = wrap(self._inner_step(z + shift, inverse=True))
            return self._map_out(inner, lambda p: self._conjugated_jacobian(p, p @ self.model.array.T))
        t, trail = starts, np.empty(shifts.shape)
        for j, shift in enumerate(shifts):
            trail[j] = t = wrap(self.invert(t + shift, tol=tol))
        return np.stack([self.jacobian(p) for p in trail])

    def wrapped_walk(self, starts: np.ndarray, steps: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
        """Walk y = F(x) (F^{-1} with `inverse`) `steps` times, wrapping each step.

        Returns the end points in [0, 1)^d and the integer offsets, (steps, n, d):
        offsets[j] = floor(y_j), and the next step starts from y_j - offsets[j].
        """
        ends = np.asarray(starts, dtype=float)
        offsets = np.empty((steps,) + ends.shape)
        if self.conjugator is not None:
            z = self._g_inverse(ends)
            for j in range(steps):
                z = self._inner_step(z, inverse)
                y = self._g(z)
                offsets[j] = np.floor(y)
                ends, z = y - offsets[j], z - offsets[j]
            return ends, offsets
        step = self.invert if inverse else self.evaluate
        for j in range(steps):
            y = step(ends)
            offsets[j] = np.floor(y)
            ends = y - offsets[j]
        return ends, offsets

    def shifted_walk(self, x: np.ndarray, shifts, inverse: bool) -> np.ndarray:
        """x <- F(x + k) (F^{-1} with `inverse`) for each k in shifts, in order.

        x (..., d) is any stack of lift points; each k broadcasts against it.
        """
        d = self.dim
        if self.conjugator is not None:
            z = self._map_out(x, self._g_inverse)
            for k in shifts:
                z = self._inner_step(z + k, inverse)
            return self._map_out(z, self._g)
        step = self.invert if inverse else self.evaluate
        for k in shifts:
            x = step((x + k).reshape(-1, d)).reshape(x.shape)
        return x

    # -- lift inversion ------------------------------------------------------

    def invert(self, y, tol: float = 1e-12) -> np.ndarray:
        """Solve F(x) = y on the lift; unique since the lift is a diffeo."""
        return self.invert_with_displacement(y, tol)[0]

    def invert_with_displacement(
        self, y, tol: float = 1e-12
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(x, phi(x), DF(x)) with F(x) = y on the lift; batched.

        Conjugated maps invert exactly by composition, and the round trip
        through the forward map that verifies the residual also gives phi(x);
        their DF is None, as no pass computes it. Trig maps run a batched
        Newton from the seed A^{-1} y with one trig pass per step for F and DF
        on the whole batch, at most _NEWTON_MAX_ITER updates; the last pass
        gives phi(x) and DF(x). Residuals are always verified.
        """
        yb, single = _as_batch(y)
        a = self.model.array
        scale = np.maximum(1.0, np.abs(yb).max(axis=1))
        jac = None
        if self.conjugator is not None:
            z = np.linalg.solve(a, self._g_inverse(yb).T).T
            x = self._g(z)
            fx = self.evaluate(x)
            disp, res = fx - x @ a.T, fx - yb
        elif self.perturbation is None or self.epsilon == 0.0:
            x = np.linalg.solve(a, yb.T).T
            res = x @ a.T - yb
            disp, jac = np.zeros_like(x), np.broadcast_to(a, x.shape + (self.dim,)).copy()
        else:
            x = np.linalg.solve(a, yb.T).T
            for step in range(_NEWTON_MAX_ITER + 1):
                val, dval = self.perturbation.evaluate_and_jacobian(x)
                disp = self.epsilon * val
                res = x @ a.T + disp - yb
                bad = np.abs(res).max(axis=1) > tol * scale
                if not bad.any():
                    break
                if step == _NEWTON_MAX_ITER:
                    worst = float(np.abs(res).max())
                    raise NoConvergence(f"lift inversion stalled at residual {worst:.3e}")
                jb = a + self.epsilon * dval[bad]
                det = np.linalg.det(jb)
                if np.any(np.abs(det) < 1e-14):
                    idx = int(np.argmin(np.abs(det)))
                    raise NotLocalDiffeo(
                        f"Jacobian determinant {det[idx]:.3e} near x = {x[bad][idx]}"
                    )
                x[bad] -= solve_batched(jb, res[bad])
            jac = a + self.epsilon * dval
        # each row against its own scale, so a row's verdict does not depend on its batch
        worst = float((np.abs(res).max(axis=1) / scale).max())
        if worst > 100.0 * tol:
            raise NoConvergence(f"lift inversion verified residual {worst:.3e} exceeds tolerance")
        if single:
            return x[0], disp[0], None if jac is None else jac[0]
        return x, disp, jac

    def preimages(self, t: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        """All degree-many torus preimages of each point; shape (n, degree, d).

        Branch j corresponds to target lift t + r_j over the fixed coset
        transversal; the ordering is therefore deterministic.
        """
        tb, single = _as_batch(t)
        reps = np.array(coset_representatives(self.model.matrix).representatives, dtype=float)
        n, deg, d = tb.shape[0], reps.shape[0], self.dim
        targets = (tb[:, None, :] + reps[None, :, :]).reshape(n * deg, d)
        try:
            pre = wrap(self.invert(targets, tol=tol))
        except (NoConvergence, NotLocalDiffeo) as exc:
            raise IncompleteEnumeration(f"preimage solve failed: {exc}") from exc
        pre = pre.reshape(n, deg, d)
        for row in range(n):
            pts = pre[row]
            for i in range(deg):
                for j in range(i + 1, deg):
                    if torus_distance(pts[i], pts[j]) < tol:
                        raise IncompleteEnumeration(
                            f"branches {i} and {j} collided at {pts[i]} (distance < {tol})"
                        )
        return pre[0] if single else pre


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
    witness: dict | None = None


def _sphere_mesh(dim: int, n_dirs: int) -> np.ndarray:
    if dim == 0:
        return np.zeros((1, 0))
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    raise ValueError(f"direction meshes implemented for subspace dims <= 2, got {dim}")


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


def _chain_forward(f: TorusMap, pts: np.ndarray, n: int) -> np.ndarray:
    """DF^n along forward torus orbits; batched product, newest factor left."""
    t = pts
    acc = np.broadcast_to(np.eye(f.dim), (pts.shape[0], f.dim, f.dim)).copy()
    for _ in range(n):
        acc = f.jacobian(t) @ acc
        t = f.torus_step(t)
    return acc


def _chain_backward(f: TorusMap, pts: np.ndarray, n: int, tol: float) -> np.ndarray:
    """DF^n at the depth-n principal-branch preimage of each point.

    With z_0 = pts and z_k the branch preimage of z_{k-1}, the chain rule
    gives D(F^n)(z_n) = DF(z_1) DF(z_2) ... DF(z_n).
    """
    orbit = [pts]
    t = pts
    for _ in range(n):
        t = f.preimages(t, tol=tol)[:, 0, :]
        orbit.append(t)
    acc = np.broadcast_to(np.eye(f.dim), (pts.shape[0], f.dim, f.dim)).copy()
    for z in orbit[1:]:
        acc = acc @ f.jacobian(z)
    return acc


# cone-field certificate: cone slope, iterations of DF, directions per sphere mesh,
# and the preimage tolerance of the backward chain
_CONE_SLOPE = 1.0
_CONE_ITERATIONS = 1
_CONE_DIRECTIONS = 12
_PREIMAGE_TOL = 1e-10


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
    fwd = _chain_forward(f, pts, _CONE_ITERATIONS)
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
            back = np.linalg.inv(_chain_backward(f, pts, _CONE_ITERATIONS, _PREIMAGE_TOL))
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

    record = ConeCertificate(
        certified=witness is None,
        grid_n=grid_n,
        iterations=_CONE_ITERATIONS,
        cone_slope=_CONE_SLOPE,
        expansion_min=float(u_exp.min()),
        slope_margin_min=float(u_margin.min()),
        backward_expansion_min=s_exp_min,
        backward_slope_margin_min=s_margin_min,
        grid_sensitivity=sens,
        witness=witness,
    )
    if witness is not None:
        exc = CertificationFailed(f"cone check failed on the {witness['side']} side", witness=witness)
        exc.record = record
        raise exc
    return record


# -- fixture catalog ----------------------------------------------------------

_A0 = ((3, 1), (1, 1))
_A1 = ((2, 1, 0), (1, 1, 0), (0, 0, 2))
_CUBIC = ((0, 0, -2), (1, 0, 1), (0, 1, 6))

_FIXTURE_MATRICES = {
    "linear_A0": _A0,
    "shear_A0": _A0,
    "conjugated_A0": _A0,
    "product_T3": _A1,
    "cubic_companion": _CUBIC,
}

FIXTURE_NAMES = ("linear_A0", "shear_A0", "conjugated_A0", "product_T3", "cubic_companion", "custom")


def fixture_catalog(name: str, epsilon: float = 0.0, custom: dict | None = None) -> TorusMap:
    """Construct a named fixture map.

    linear_A0         the 2x2 linear model, eigenvalues 2 +- sqrt(2)
    shear_A0(eps)     A0 plus the vertical shear (0, eps sin 2 pi x)
    conjugated_A0(eps) smooth conjugate g A0 g^{-1}, g = Id + eps(sin 2 pi y, sin 2 pi x)/10
    product_T3(eps)   block product on T^3: sheared invertible 2x2 block x doubling circle factor
    cubic_companion   3x3 companion of x^3 - 6x^2 - x + 2 (two stable directions)
    custom            built from `custom` dict: matrix, terms or conjugator_terms, label
    """
    if name == "linear_A0":
        if epsilon != 0.0:
            raise ValueError("linear_A0 takes no perturbation scale")
        return TorusMap(model=analyze_matrix(_A0), label="linear_A0")
    if name == "shear_A0":
        field_ = TrigField.from_terms(2, {1: [((1, 0), 0.0, 1.0)]})
        return TorusMap(model=analyze_matrix(_A0), epsilon=epsilon,
                        perturbation=field_, label=f"shear_A0({epsilon:g})")
    if name == "conjugated_A0":
        conj = TrigField.from_terms(2, {0: [((0, 1), 0.0, 0.1)], 1: [((1, 0), 0.0, 0.1)]})
        return TorusMap(model=analyze_matrix(_A0), epsilon=epsilon,
                        conjugator=conj, label=f"conjugated_A0({epsilon:g})")
    if name == "product_T3":
        field_ = TrigField.from_terms(3, {1: [((1, 0, 0), 0.0, 1.0)]})
        return TorusMap(model=analyze_matrix(_A1), epsilon=epsilon,
                        perturbation=field_, label=f"product_T3({epsilon:g})")
    if name == "cubic_companion":
        if epsilon != 0.0:
            raise ValueError("cubic_companion takes no perturbation scale; use custom")
        return TorusMap(model=analyze_matrix(_CUBIC), label="cubic_companion")
    if name == "custom":
        if not custom or "matrix" not in custom:
            raise ValueError("custom fixture needs at least a 'matrix' entry")
        model = analyze_matrix(custom["matrix"])
        label = custom.get("label", "custom")
        terms = custom.get("terms")
        conj_terms = custom.get("conjugator_terms")
        if terms and conj_terms:
            raise ValueError("custom fixture cannot set both terms and conjugator_terms")
        pert = TrigField.from_terms(model.dim, _parse_terms(terms)) if terms else None
        conj = TrigField.from_terms(model.dim, _parse_terms(conj_terms)) if conj_terms else None
        return TorusMap(model=model, epsilon=epsilon, perturbation=pert,
                        conjugator=conj, label=label)
    raise UnknownFixture(f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}")


def fixture_dim(name: str, custom: dict | None = None) -> int | None:
    """Torus dimension of a named fixture, read off its matrix without analysing it;
    None for a custom fixture without a matrix list."""
    if name != "custom":
        return len(_FIXTURE_MATRICES[name])
    matrix = (custom or {}).get("matrix")
    return len(matrix) if isinstance(matrix, (list, tuple)) else None


def _parse_terms(terms) -> dict[int, list[tuple]]:
    out: dict[int, list[tuple]] = {}
    for coord, entries in terms.items():
        out[int(coord)] = [(tuple(e[0]), float(e[1]), float(e[2])) for e in entries]
    return out
