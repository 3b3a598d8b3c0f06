"""Stable leaf geometry: traces, the cocycle solver, and the affine leaf metric.

Leaves are traced as polylines through the one-dimensional stable direction
fields. The cocycle solver finds the mean and transfer function of an
observable over the dynamics by Fourier least squares on a grid, with the
periodic-orbit obstruction as the honesty check. The affine metric integrates
e^(transfer) along traced leaves, which turns the map into a strict affine
contraction leafwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from anosovlab.bundles import (
    IntegrabilityReport,
    _backward_jacobians,
    _descending_frame,
    _forward_jacobians,
    _stable_field,
    first_stable_direction,
)
from anosovlab.conjugacy import ConjugacyEvaluator
from anosovlab.errors import (
    NoConvergence,
    NoIntersection,
    ObstructionNonzero,
    RefusedNonIntegrable,
    StepRejected,
)
from anosovlab.maps import TorusMap
from anosovlab.orbits import OrbitInventory
from anosovlab.util import float_cell, grid_points, wrap


# -- direction fields ----------------------------------------------------------


def stable_direction_stack(f: TorusMap, pts: np.ndarray, i: int, depth: int = 12) -> np.ndarray:
    """First i stable directions at each point, shape (n, d, i), unit columns.

    The first direction reads a depth-long forward Jacobian chain from each
    point (see `first_stable_direction`); deeper ones intersect it with the
    backward flag.
    """
    k = f.model.stable_dim
    if not 1 <= i <= k:
        raise ValueError(f"stable index {i} out of range 1..{k}")
    if f.epsilon == 0.0:
        stack = f.model.stable_lines[:i].T
        return np.broadcast_to(stack, (pts.shape[0],) + stack.shape).copy()
    if i == 1:
        # plane chains start at the lift point itself, QR chains at its torus cell
        jacs = _forward_jacobians(f, pts if f.dim == 2 else wrap(pts), depth)
        return first_stable_direction(f, jacs, depth)[0][:, :, None]
    stable, _, _ = _stable_field(f, wrap(pts), depth)
    return stable[:, :, :i]


def stable_direction_field(f: TorusMap, pts: np.ndarray, i: int = 1, depth: int = 12) -> np.ndarray:
    """Unit vectors along the i-th stable direction; sign not normalized."""
    return stable_direction_stack(f, pts, i, depth)[:, :, i - 1]


def unstable_direction_field(f: TorusMap, pts: np.ndarray, depth: int = 12) -> np.ndarray:
    """Unit unstable vectors along the canonical lift-inverse branch (needs d-k = 1)."""
    if f.dim - f.model.stable_dim != 1:
        raise ValueError("unstable field tracing needs a one-dimensional unstable bundle")
    if f.epsilon == 0.0:
        line = f.model.unstable_subspace[:, 0]
        return np.broadcast_to(line, pts.shape).copy()
    q, _ = _descending_frame(_backward_jacobians(f, wrap(pts), depth))
    return q[0, :, :, 0]


# -- leaf polylines ------------------------------------------------------------


@dataclass(frozen=True)
class LeafPolyline:
    """Polyline along one stable (or unstable) leaf in lift coordinates."""

    points: np.ndarray      # (n, d)
    arclength: np.ndarray   # (n,) cumulative from node 0
    index: int              # which stable direction, 1 = most contracted
    center_index: int       # node at the seed point

    def __len__(self) -> int:
        return self.points.shape[0]

    def node_near_arc(self, s: float) -> int:
        """Index of the node whose cumulative arclength is closest to s."""
        return int(np.argmin(np.abs(self.arclength - s)))


def _cumulative_arclength(points: np.ndarray) -> np.ndarray:
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _align(dirs: np.ndarray, prev: np.ndarray) -> np.ndarray:
    flip = np.sum(dirs * prev, axis=1) < 0.0
    out = dirs.copy()
    out[flip] *= -1.0
    return out


def _trace_batch(starts, field, L, h, max_turn):
    """Midpoint-rule traces in both directions; (n, 2*steps+1, d) and center index."""
    steps = max(1, int(np.ceil(L / h)))
    n, d = starts.shape
    out = np.empty((n, 2 * steps + 1, d))
    out[:, steps] = starts
    d0 = field(starts)
    for sign in (1.0, -1.0):
        x = starts.copy()
        prev = sign * d0
        for j in range(steps):
            d1 = _align(field(x), prev)
            d2 = _align(field(x + 0.5 * h * d1), d1)
            turn = float(np.arccos(np.clip(np.sum(d1 * d2, axis=1), -1.0, 1.0)).max())
            if turn > max_turn:
                raise StepRejected(
                    f"direction field turned {turn:.3f} rad in one step of {h}; reduce h"
                )
            x = x + h * d2
            slot = steps + (j + 1) if sign > 0 else steps - (j + 1)
            out[:, slot] = x
            prev = d2
    return out, steps


def trace_stable_leaf(
    f: TorusMap,
    x,
    i: int = 1,
    L: float = 0.4,
    h: float = 1e-3,
    depth: int = 12,
    max_turn: float = 0.35,
) -> LeafPolyline:
    """Polyline through the lift point x along E^s_i, arclength L each way."""
    return trace_stable_leaves(f, [x], i, L, h, depth, max_turn)[0]


def trace_unstable_leaf(
    f: TorusMap, x, L: float = 0.4, h: float = 1e-3, depth: int = 12, max_turn: float = 0.35
) -> LeafPolyline:
    start = np.asarray(x, dtype=float)[None, :]

    def field(pts):
        return unstable_direction_field(f, pts, depth)

    pts, center = _trace_batch(start, field, L, h, max_turn)
    return LeafPolyline(
        points=pts[0], arclength=_cumulative_arclength(pts[0]), index=0, center_index=center
    )


def trace_stable_leaves(
    f: TorusMap,
    starts,
    i: int = 1,
    L: float = 0.4,
    h: float = 1e-3,
    depth: int = 12,
    max_turn: float = 0.35,
) -> list[LeafPolyline]:
    """Batched variant of trace_stable_leaf (one integration for all starts)."""
    arr = np.atleast_2d(np.asarray(starts, dtype=float))

    def field(pts):
        return stable_direction_field(f, pts, i, depth)

    traces, center = _trace_batch(arr, field, L, h, max_turn)
    return [
        LeafPolyline(traces[j], _cumulative_arclength(traces[j]), i, center)
        for j in range(arr.shape[0])
    ]


def map_polyline(f: TorusMap, leaf: LeafPolyline) -> LeafPolyline:
    """Image polyline under the lift; its nodes stay on the image leaf."""
    pts = f.evaluate(leaf.points)
    return replace(
        leaf, points=pts, arclength=_cumulative_arclength(pts)
    )


def tangency_residual(f: TorusMap, leaf: LeafPolyline, depth: int = 12) -> float:
    """Max angle between polyline segments and the direction field at midpoints."""
    mids = 0.5 * (leaf.points[:-1] + leaf.points[1:])
    segs = np.diff(leaf.points, axis=0)
    segs /= np.linalg.norm(segs, axis=1, keepdims=True)
    if leaf.index == 0:
        dirs = unstable_direction_field(f, mids, depth)
    else:
        dirs = stable_direction_field(f, mids, leaf.index, depth)
    dots = np.clip(np.abs(np.sum(segs * dirs, axis=1)), 0.0, 1.0)
    return float(np.arccos(dots).max())


def polyline_distance(points: np.ndarray, leaf: LeafPolyline) -> np.ndarray:
    """Distance from each query point to the polyline (min over segments)."""
    a = leaf.points[:-1][None, :, :]
    b = leaf.points[1:][None, :, :]
    p = points[:, None, :]
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=2) / np.sum(ab * ab, axis=2), 0.0, 1.0)
    closest = a + t[:, :, None] * ab
    return np.linalg.norm(p - closest, axis=2).min(axis=1)


def leaf_invariance_defect(f: TorusMap, leaf: LeafPolyline, **trace_kw) -> float:
    """Hausdorff-style defect: image nodes against a fresh trace at the image center."""
    image = map_polyline(f, leaf)
    fresh = trace_stable_leaf(f, image.points[image.center_index], i=leaf.index, **trace_kw)
    span = fresh.arclength[-1]
    arc = np.abs(image.arclength - image.arclength[image.center_index])
    keep = arc <= 0.9 * span / 2.0
    return float(polyline_distance(image.points[keep], fresh).max())


# -- cocycle solver ------------------------------------------------------------


def _half_space_modes(d: int, order: int) -> np.ndarray:
    """Integer modes with |k|_inf <= order, first nonzero component positive."""
    axes = [np.arange(-order, order + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = []
    for k in grid:
        nz = k[k != 0]
        if nz.size and nz[0] > 0:
            keep.append(k)
    return np.array(keep, dtype=int)


def _fourier_design(pts: np.ndarray, modes: np.ndarray) -> np.ndarray:
    theta = 2.0 * np.pi * (pts @ modes.T)
    return np.concatenate([np.cos(theta), np.sin(theta)], axis=1)


@dataclass(frozen=True)
class CocycleSolution:
    """Mean + Fourier transfer function decomposition of an observable.

    orientation "forward": phi - mean = psi(f x) - psi(x);
    orientation "transfer": phi - mean = psi(x) - psi(f x).
    """

    mean: float
    modes: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    fourier_order: int
    residual: float
    obstruction: float
    orbit_mean: float
    orientation: str = "forward"

    def transfer(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if self.modes.size == 0:
            return np.zeros(pts.shape[0])
        theta = 2.0 * np.pi * (pts @ self.modes.T)
        return np.cos(theta) @ self.cos_coeffs + np.sin(theta) @ self.sin_coeffs

    @property
    def sup_transfer(self) -> float:
        return float(np.abs(self.cos_coeffs).sum() + np.abs(self.sin_coeffs).sum())

    def negated(self) -> "CocycleSolution":
        flip = "transfer" if self.orientation == "forward" else "forward"
        return replace(
            self, cos_coeffs=-self.cos_coeffs, sin_coeffs=-self.sin_coeffs, orientation=flip
        )

    def csv_rows(self) -> list[list[str]]:
        return [
            ["mode_count", "mean", "residual", "obstruction"],
            [
                str(self.modes.shape[0]),
                float_cell(self.mean),
                float_cell(self.residual),
                float_cell(self.obstruction),
            ],
        ]


# orbit segments that estimate the cocycle mean: count and length
_SEGMENTS = 160
_SEGMENT_LEN = 4000


def _sum_chunks(n: int) -> int:
    return max(1, n // 20000)


def _segment_mean(f: TorusMap, phi, segments: int, segment_len: int, seed: int) -> float:
    """Average of phi along long forward orbit segments (telescoping-exact for
    coboundaries plus a constant).

    An observable with an orbit form (`phi.along_orbit`, see
    `stable_log_norm_observable`) is evaluated on time blocks of the
    segments, each reading `lookahead` further orbit points; any other is
    evaluated point by point. Either way the values are summed in the same
    chunks, so both give the same float.
    """
    rng = np.random.default_rng(seed)
    starts = rng.random((segments, f.dim))
    along_orbit = getattr(phi, "along_orbit", None)
    if along_orbit is None:
        flat = f.orbit_points(starts, segment_len).reshape(-1, f.dim)
        vals = np.concatenate([phi(c) for c in np.array_split(flat, _sum_chunks(flat.shape[0]))])
    else:
        extra = along_orbit.lookahead
        orbit = f.orbit_points(starts, segment_len + extra)
        block = max(1, 2**16 // segments)  # time steps; bounds the Jacobian and frame stacks
        vals = np.concatenate([
            along_orbit(orbit[t : min(t + block, segment_len) + extra]).ravel()
            for t in range(0, segment_len, block)
        ])
    total = 0.0
    for chunk in np.array_split(vals, _sum_chunks(vals.size)):
        total += float(np.sum(chunk))
    return total / vals.size


def _periodic_obstruction(phi, mean: float, inventory: OrbitInventory) -> float:
    worst = 0.0
    for orbit in inventory:
        avg = float(np.mean(phi(orbit.points)))
        worst = max(worst, abs(avg - mean))
    return worst


def livschitz_solve(
    f: TorusMap,
    phi,
    inventory: OrbitInventory,
    fourier_order: int = 16,
    obstruction_tol: float = 1e-4,
    seed: int = 0,
) -> CocycleSolution:
    """Decompose phi = mean + psi(f x) - psi(x) by grid least squares.

    The mean comes from _SEGMENTS orbit segments of _SEGMENT_LEN steps (exact
    up to 2 sup|psi|/len per segment when the decomposition exists); psi from
    least squares over Fourier modes |k|_inf <= fourier_order on a 64^2
    (plane) or 20^3 grid, with the sup residual measured on a finer
    off-lattice grid. The obstruction is the worst deviation of an average
    over an orbit of `inventory` from the mean; when it exceeds
    obstruction_tol the best fit is attached to ObstructionNonzero.
    """
    d = f.dim
    grid_n = 64 if d == 2 else 20
    if d > 2:
        fourier_order = min(fourier_order, 6)

    probe = np.random.default_rng(seed + 1).random((64, d))
    probe_vals = phi(probe)
    if float(np.ptp(probe_vals)) < 1e-12:
        # a constant observable is its own mean with a zero transfer function
        mean = orbit_mean = float(np.mean(probe_vals))
        modes = np.zeros((0, d), dtype=int)
        cos_c, sin_c = np.zeros(0), np.zeros(0)
        residual = float(np.ptp(probe_vals))
    else:
        orbit_mean = _segment_mean(f, phi, _SEGMENTS, _SEGMENT_LEN, seed)
        mean = orbit_mean

        grid = grid_points(d, grid_n)
        modes = _half_space_modes(d, fourier_order)
        design = _fourier_design(f.torus_step(grid), modes) - _fourier_design(grid, modes)
        rhs = phi(grid) - mean
        coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        m = modes.shape[0]
        cos_c, sin_c = coeffs[:m], coeffs[m:]

        fine_n = 97 if d == 2 else 23
        fine_axes = [(np.arange(fine_n) + 0.37) / fine_n] * d
        fine = np.stack(np.meshgrid(*fine_axes, indexing="ij"), axis=-1).reshape(-1, d)
        fine_design = _fourier_design(f.torus_step(fine), modes) - _fourier_design(fine, modes)
        residual = float(np.abs(phi(fine) - mean - fine_design @ coeffs).max())

    obstruction = _periodic_obstruction(phi, mean, inventory)
    sol = CocycleSolution(
        mean=mean,
        modes=modes,
        cos_coeffs=cos_c,
        sin_coeffs=sin_c,
        fourier_order=fourier_order,
        residual=residual,
        obstruction=obstruction,
        orbit_mean=orbit_mean,
    )
    if obstruction > obstruction_tol:
        raise ObstructionNonzero(
            f"periodic obstruction {obstruction:.3e} exceeds {obstruction_tol}", solution=sol
        )
    return sol


def stable_log_norm_observable(f: TorusMap, i: int = 1, depth: int = 12):
    """phi(x) = log of the contraction factor of DF on E^s_i at x.

    For i >= 2 the factor is the quotient norm on E^s_(1..i)/E^s_(1..i-1),
    computed as the component of DF e_i(x) along the direction of E^s_(1..i)
    orthogonal to E^s_(1..i-1) at the image point.

    For i = 1 on a perturbed map phi also has an orbit form,
    `phi.along_orbit`, which evaluates it along forward orbit segments from
    one Jacobian per orbit point; `phi.along_orbit.lookahead` is the number
    of points it reads past the last value.
    """
    if i == 1:
        def log_contraction(jacs, v):
            w = np.einsum("nij,nj->ni", jacs, v)
            return np.log(np.linalg.norm(w, axis=1))

        def phi(pts):
            pts = np.atleast_2d(pts)
            return log_contraction(f.jacobian(pts), stable_direction_field(f, pts, 1, depth))

        if f.epsilon == 0.0:
            return phi

        def along_orbit(orbit):
            """phi at orbit[t] for t < len(orbit) - depth + 1, shape (T, n).

            orbit (T + depth - 1, n, d) holds n forward orbits; each point's
            Jacobian serves as DF in phi and in the direction windows of the
            depth - 1 points before it.
            """
            d = f.dim
            jacs = f.jacobian(orbit.reshape(-1, d)).reshape(orbit.shape + (d,))
            v = first_stable_direction(f, jacs, depth)
            vals = log_contraction(jacs[: v.shape[0]].reshape(-1, d, d), v.reshape(-1, d))
            return vals.reshape(v.shape[:2])

        # function attributes, so wrappers that copy __dict__ keep the orbit form
        along_orbit.lookahead = depth - 1
        phi.along_orbit = along_orbit
        return phi

    def _normal_unit(stack):
        # component of the i-th direction orthogonal to the first i-1, unit
        lead, last = stack[:, :, :-1], stack[:, :, -1]
        q, _ = np.linalg.qr(lead)
        proj = np.einsum("ndi,ni->nd", q, np.einsum("ndi,nd->ni", q, last))
        n = last - proj
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def phi(pts):
        pts = np.atleast_2d(pts)
        stack_x = stable_direction_stack(f, pts, i, depth)
        stack_fx = stable_direction_stack(f, f.torus_step(pts), i, depth)
        n_x = _normal_unit(stack_x)
        n_fx = _normal_unit(stack_fx)
        w = np.einsum("nij,nj->ni", f.jacobian(pts), n_x)
        return np.log(np.abs(np.sum(n_fx * w, axis=1)))

    return phi


def bundle_coboundary_psi(
    f: TorusMap,
    inventory: OrbitInventory,
    i: int = 1,
    fourier_order: int = 16,
    depth: int = 12,
) -> CocycleSolution:
    """Transfer function for the stable log-contraction cocycle on E^s_i.

    Returns the solution in "transfer" orientation: phi - mean = psi - psi(Fx),
    so the affine metric weight is exp(psi). A periodic obstruction above
    tolerance propagates as ObstructionNonzero and is the non-rigidity signal,
    not a failure of the solver. A mean more than 1e-4 from the linear
    exponent raises NoConvergence.
    """
    lambda_tol = 1e-4
    phi = stable_log_norm_observable(f, i, depth)
    sol = livschitz_solve(f, phi, inventory, fourier_order)
    target = f.model.stable_exponents[i - 1]
    if abs(sol.mean - target) > lambda_tol:
        raise NoConvergence(
            f"stable cocycle mean {sol.mean:.8f} vs linear exponent {target:.8f} "
            f"differs by more than {lambda_tol}"
        )
    return sol.negated()


# -- affine leaf metric ---------------------------------------------------------


def _fractional_point(leaf: LeafPolyline, pos: float) -> np.ndarray:
    j = int(np.floor(pos))
    t = pos - j
    if j >= len(leaf) - 1:
        return leaf.points[-1]
    return (1.0 - t) * leaf.points[j] + t * leaf.points[j + 1]


def affine_distance(leaf: LeafPolyline, a, b, psi: CocycleSolution | None) -> float:
    """Trapezoid integral of e^(psi) arclength between two leaf positions.

    a and b index polyline nodes; fractional values interpolate inside the
    containing segment. psi None means the plain arclength.
    """
    lo, hi = (float(a), float(b)) if a <= b else (float(b), float(a))
    if lo < 0 or hi > len(leaf) - 1:
        raise ValueError("leaf positions out of range")
    j0, j1 = int(np.ceil(lo)), int(np.floor(hi))
    nodes = [_fractional_point(leaf, lo)]
    nodes.extend(leaf.points[j0 : j1 + 1])
    nodes.append(_fractional_point(leaf, hi))
    pts = np.array(nodes)
    keep = np.concatenate([[True], np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-15])
    pts = pts[keep]
    if pts.shape[0] < 2:
        return 0.0
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    w = np.exp(psi.transfer(wrap(pts))) if psi is not None else np.ones(pts.shape[0])
    return float(np.sum(0.5 * (w[:-1] + w[1:]) * seg))


# -- holonomies -----------------------------------------------------------------


def _segment_crossing(poly_u: np.ndarray, poly_s: np.ndarray):
    """First crossing of the u-polyline through the s-polyline (2D).

    Returns (u position, s position, point) with fractional segment indices.
    """
    diff = poly_u[:, None, :] - poly_s[None, :, :]
    nearest = np.argmin(np.einsum("usd,usd->us", diff, diff), axis=1)
    seg_dirs = np.diff(poly_s, axis=0)
    tang = seg_dirs[np.minimum(nearest, poly_s.shape[0] - 2)]
    rel = poly_u - poly_s[nearest]
    side = tang[:, 0] * rel[:, 1] - tang[:, 1] * rel[:, 0]
    sgn = np.sign(side)
    # a node exactly on the target leaf gives side == 0 without a strict flip
    weak = (sgn[:-1] * sgn[1:] < 0) | (sgn[:-1] == 0) | (sgn[1:] == 0)
    for j in np.nonzero(weak)[0]:
        p0, p1 = poly_u[j], poly_u[j + 1]
        lo = max(0, min(nearest[j], nearest[j + 1]) - 2)
        hi = min(poly_s.shape[0] - 1, max(nearest[j], nearest[j + 1]) + 2)
        for m in range(lo, hi):
            q0, q1 = poly_s[m], poly_s[m + 1]
            mat = np.column_stack([p1 - p0, q0 - q1])
            det = np.linalg.det(mat)
            if abs(det) < 1e-14:
                continue
            t, s = np.linalg.solve(mat, q0 - p0)
            if -1e-9 <= t <= 1 + 1e-9 and -1e-9 <= s <= 1 + 1e-9:
                return j + float(t), m + float(s), p0 + t * (p1 - p0)
    raise NoIntersection("unstable trace does not cross the target stable leaf")


def unstable_holonomy(
    f: TorusMap,
    integrability: IntegrabilityReport,
    x,
    x_prime,
    y,
    i: int = 1,
    L: float = 0.5,
    h: float = 1e-3,
    depth: int = 12,
    target_leaf: LeafPolyline | None = None,
):
    """Slide y along its unstable leaf to the stable leaf of x_prime.

    x and x_prime must lie on one unstable leaf and y on the stable leaf of x;
    refused unless `integrability` (the caller's scan of f) found the unstable
    direction branch-independent, since otherwise the holonomy is not well
    defined. Returns the intersection lift point.
    """
    if not integrability.integrable:
        raise RefusedNonIntegrable("unstable bundle not integrable; holonomy undefined")
    if f.dim != 2:
        raise ValueError("holonomy tracing implemented for the plane case")
    if target_leaf is None:
        target_leaf = trace_stable_leaf(f, x_prime, i=i, L=L, h=h, depth=depth)
    u_leaf = trace_unstable_leaf(f, y, L=L, h=h, depth=depth)
    _, _, point = _segment_crossing(u_leaf.points, target_leaf.points)
    return point


@dataclass(frozen=True)
class HolonomyIsometryReport:
    samples: int
    max_relative_defect: float
    mean_relative_defect: float
    rows: tuple  # (sample, d_s_source, d_s_image, relative defect)

    def csv_rows(self) -> list[list[str]]:
        out = [["sample", "d_s_source", "d_s_image", "relative_defect"]]
        for s, a, b, r in self.rows:
            out.append([str(s), float_cell(a), float_cell(b), float_cell(r)])
        return out


def holonomy_isometry_check(
    f: TorusMap,
    integrability: IntegrabilityReport,
    psi: CocycleSolution,
    i: int = 1,
    samples: int = 50,
    seed: int = 0,
    h: float = 1e-3,
    depth: int = 12,
) -> HolonomyIsometryReport:
    """Measure |d^s(hol a, hol b) - d^s(a, b)| / d^s(a, b) over random slides.

    Each sample takes a base point x, a nearby x' on its unstable leaf, and a
    pair a, b on the stable leaf of x; both are slid to the stable leaf of x'.
    Refused like `unstable_holonomy` when `integrability` says not integrable.
    """
    if not integrability.integrable:
        raise RefusedNonIntegrable("unstable bundle not integrable; holonomy undefined")
    rng = np.random.default_rng(seed)
    xs = rng.random((samples, f.dim))
    delta = rng.uniform(0.02, 0.05, samples)
    offs = rng.uniform(0.05, 0.16, (samples, 2)) * np.array([-1.0, 1.0])

    def u_field(pts):
        return unstable_direction_field(f, pts, depth)

    def s_field(pts):
        return stable_direction_field(f, pts, i, depth)

    base_tr, c0 = _trace_batch(xs, s_field, 0.2, h, 0.35)
    unst_tr, cu = _trace_batch(xs, u_field, 0.08, h, 0.35)

    primes = np.array(
        [unst_tr[s, cu + int(round(delta[s] / h))] for s in range(samples)]
    )
    ia = np.empty(samples, dtype=int)
    ib = np.empty(samples, dtype=int)
    bases = []
    for s in range(samples):
        base = LeafPolyline(base_tr[s], _cumulative_arclength(base_tr[s]), i, c0)
        bases.append(base)
        ia[s] = base.node_near_arc(base.arclength[c0] + offs[s, 0])
        ib[s] = base.node_near_arc(base.arclength[c0] + offs[s, 1])
    # half-length must exceed the largest base offset (0.16) so every slide lands
    target_tr, _ = _trace_batch(primes, s_field, 0.44, h, 0.35)
    ua_tr, _ = _trace_batch(base_tr[np.arange(samples), ia], u_field, 0.25, h, 0.35)
    ub_tr, _ = _trace_batch(base_tr[np.arange(samples), ib], u_field, 0.25, h, 0.35)

    rows = []
    worst = 0.0
    total = 0.0
    for s in range(samples):
        target = LeafPolyline(target_tr[s], _cumulative_arclength(target_tr[s]), i, 0)
        _, sa, _ = _segment_crossing(ua_tr[s], target.points)
        _, sb, _ = _segment_crossing(ub_tr[s], target.points)
        d_src = affine_distance(bases[s], int(ia[s]), int(ib[s]), psi)
        d_img = affine_distance(target, sa, sb, psi)
        rel = abs(d_img - d_src) / d_src
        rows.append((s, d_src, d_img, rel))
        worst = max(worst, rel)
        total += rel
    return HolonomyIsometryReport(
        samples=samples,
        max_relative_defect=worst,
        mean_relative_defect=total / samples,
        rows=tuple(rows),
    )


# -- conjugacy leaf isometry -----------------------------------------------------


@dataclass(frozen=True)
class ConjugacyIsometryReport:
    status: str  # "ok" | "skipped_non_rigid"
    scale: float
    max_relative_deviation: float
    pairs: int
    rows: tuple  # (pair, d_s, linear distance, scaled deviation)

    def csv_rows(self) -> list[list[str]]:
        out = [["pair", "d_s", "linear_distance", "scaled_deviation"]]
        for p, ds, e, dev in self.rows:
            out.append([str(p), float_cell(ds), float_cell(e), float_cell(dev)])
        return out


def conjugacy_leaf_isometry_check(
    f: TorusMap,
    ce: ConjugacyEvaluator,
    psi: CocycleSolution,
    i: int = 1,
    samples: int = 100,
    seed: int = 0,
    h: float = 1e-3,
    depth: int = 12,
) -> ConjugacyIsometryReport:
    """Compare the affine leaf metric with Euclidean distance after conjugating.

    Fits the one free scale between d^s_i(a, b) and |H(a) - H(b)|, with H from
    the evaluator `ce` of f, and reports the worst relative deviation after
    scaling. `psi` is the transfer function of the stable cocycle; without one
    (a periodic obstruction) the metric does not exist and the check is not
    run.
    """
    rng = np.random.default_rng(seed)
    n_leaves = 8
    starts = rng.random((n_leaves, f.dim))

    def s_field(pts):
        return stable_direction_field(f, pts, i, depth)

    traces, center = _trace_batch(starts, s_field, 0.3, h, 0.35)

    per_leaf = int(np.ceil(1.5 * samples / n_leaves))
    d_vals, e_vals = [], []
    n_nodes = traces.shape[1]
    for leaf_id in range(n_leaves):
        leaf = LeafPolyline(traces[leaf_id], _cumulative_arclength(traces[leaf_id]), i, center)
        ia = rng.integers(0, n_nodes, per_leaf)
        ib = rng.integers(0, n_nodes, per_leaf)
        ok = np.abs(ia - ib) > int(0.02 / h)
        for a, b in zip(ia[ok], ib[ok]):
            d_vals.append(affine_distance(leaf, int(a), int(b), psi))
            ha = ce.apply(leaf.points[int(a)][None, :])[0]
            hb = ce.apply(leaf.points[int(b)][None, :])[0]
            e_vals.append(float(np.linalg.norm(ha - hb)))
    d_arr = np.array(d_vals[:samples])
    e_arr = np.array(e_vals[:samples])
    scale = float((d_arr @ e_arr) / (d_arr @ d_arr))
    dev = np.abs(e_arr / (scale * d_arr) - 1.0)
    rows = tuple(
        (p, float(d_arr[p]), float(e_arr[p]), float(dev[p])) for p in range(d_arr.size)
    )
    return ConjugacyIsometryReport(
        status="ok",
        scale=scale,
        max_relative_deviation=float(dev.max()),
        pairs=int(d_arr.size),
        rows=rows,
    )
