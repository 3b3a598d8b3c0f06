"""Stable leaf geometry: leaves by pull-back, the cocycle solver, the affine leaf metric.

Leaves are polylines built by the graph transform: a straight segment along
the linear stable line at the end of a wrapped forward orbit, pulled back
through the lift (unstable leaves push a linear unstable segment forward the
same way). The stable direction field, E^s_1 from the adjugate chain of
`bundles.first_stable_direction`, gives the log-contraction observable of
the stable cocycle; unstable directions are read along backward branches
(`bundles._branch_walk_directions`). The cocycle solver finds the mean and
transfer function of an observable over the dynamics by Fourier least
squares on a grid, with the periodic-orbit obstruction as the honesty
check. The affine metric integrates e^(transfer) along the leaves, which
turns the map into a strict affine contraction leafwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from anosovlab.bundles import IntegrabilityReport, first_stable_direction, stable_log_sums
from anosovlab.conjugacy import ConjugacyEvaluator
from anosovlab.errors import NoIntersection, ObstructionNonzero, RefusedNonIntegrable
from anosovlab.maps import TorusMap
from anosovlab.orbits import OrbitInventory
from anosovlab.util import float_cell, grid_points, wrap


# -- stable direction field ----------------------------------------------------


def stable_direction_field(f: TorusMap, pts: np.ndarray, depth: int) -> np.ndarray:
    """Unit vectors (n, d) along the most-contracted stable direction; sign not normalized.

    Each reads a depth-long forward Jacobian chain from its point (see
    `first_stable_direction`); a linear map's is its linear E^s_1.
    """
    if f.epsilon == 0.0:
        return np.broadcast_to(f.model.stable_lines[0], pts.shape).copy()
    return first_stable_direction(f, next(f.orbit_jacobians(pts, depth, depth)), depth)[0]


# -- leaf polylines ------------------------------------------------------------

# node spacing along a leaf: each side of arclength L gets ceil(L / _NODE_SPACING) nodes
_NODE_SPACING = 1e-3
# a side that comes out shorter than asked is widened by this much beyond the missing length
_WIDEN = 1.05
# most a walk may stretch its segment: rounding on the segment grows by as much
_MAX_STRETCH = 1e7


@dataclass(frozen=True)
class LeafPolyline:
    """Polyline along one stable (or unstable) leaf in lift coordinates."""

    points: np.ndarray      # (n, d)
    arclength: np.ndarray   # (n,) cumulative from node 0
    center_index: int       # node at the seed point

    def __len__(self) -> int:
        return self.points.shape[0]

    def node_near_arc(self, s: float) -> int:
        """Index of the node whose cumulative arclength is closest to s."""
        return int(np.argmin(np.abs(self.arclength - s)))


def _cumulative_arclength(points: np.ndarray) -> np.ndarray:
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def pull_back_leaves(
    f: TorusMap, pts: np.ndarray, L: float, depth: int, unstable: bool = False
) -> list[LeafPolyline]:
    """Leaf polylines through the lift points `pts` (n, d), each side of arclength >= L.

    A stable leaf (the most-contracted one) comes from the graph transform
    (Hirsch, Pugh and Shub, LNM 583): walk `depth` forward steps from the
    start, wrapping each one and keeping its integer offset k_j, lay a
    straight segment along the linear E^s at the end point, and pull it back
    with F^-1(y + k_j). The lift F is a diffeomorphism of R^d, so the
    segment's error across the leaf shrinks like |lambda_u|^-depth. Wrapping
    keeps every coordinate of order one: unwrapped, the orbit grows like
    |lambda_u|^depth and the nodes collapse onto each other.

    An unstable leaf (plane-like case, d - k = 1) swaps F and F^-1: a
    linear-E^u segment is pushed forward along the wrapped lift preimage
    orbit. Its backward branch is fixed, so it is the leaf only where the
    unstable direction does not depend on the branch.

    A side of m = ceil(L / _NODE_SPACING) nodes starts with node spacing
    |lambda|^depth _NODE_SPACING along the segment and is widened until its
    arclength reaches L. A linear map's leaf is the segment itself. The walk
    stops short of `depth` where it would stretch the segment by more than
    _MAX_STRETCH, since rounding on the segment grows by the same factor: on
    the A0 maps after 13 steps for unstable leaves and 30 for stable ones.
    """
    n, d = pts.shape
    model = f.model
    if unstable:
        if d - model.stable_dim != 1:
            raise ValueError("unstable leaves need a one-dimensional unstable bundle")
        line, rate = model.unstable_subspace[:, 0], 1.0 / model.unstable_moduli[0]
    else:
        line, rate = model.stable_lines[0], abs(model.stable_eigenvalues[0])
    steps = 0 if f.is_linear else min(depth, int(np.log(_MAX_STRETCH) / -np.log(rate)))
    # one ray per side of each leaf, rays n.. on the negative side; each ray walks
    # its own copy of the orbit, so no kernel sees a one-row batch
    origin = np.concatenate([pts, pts])
    sign = np.repeat([1.0, -1.0], n)
    ends, offsets = f.wrapped_walk(origin, steps, inverse=unstable)

    m = max(1, int(np.ceil(L / _NODE_SPACING)))
    spacing = np.full(2 * n, _NODE_SPACING * rate**steps)
    sides = np.empty((2 * n, m, d))
    todo = np.arange(2 * n)
    while todo.size:
        seg = np.empty((todo.size, m + 1, d))
        seg[:, 0] = ends[todo]
        seg[:, 1:] = (sign[todo] * spacing[todo])[:, None, None] * line
        q = np.cumsum(seg, axis=1)[:, 1:]
        q = f.shifted_walk(q, offsets[::-1, todo, None], inverse=not unstable)
        sides[todo] = q
        if not steps:  # the segment is the leaf, m * _NODE_SPACING >= L long
            break
        arc = np.linalg.norm(np.diff(q, axis=1), axis=2).sum(axis=1)
        arc += np.linalg.norm(q[:, 0] - origin[todo], axis=1)
        short = arc < L
        spacing[todo[short]] *= _WIDEN * L / arc[short]
        todo = todo[short]

    leaves = []
    for j in range(n):
        nodes = np.concatenate([sides[n + j, ::-1], pts[j : j + 1], sides[j]])
        leaves.append(LeafPolyline(nodes, _cumulative_arclength(nodes), m))
    return leaves


def _nearest_on_polyline(points: np.ndarray, leaf: LeafPolyline) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each query point to the polyline, and the fractional node position of its foot."""
    a = leaf.points[:-1][None, :, :]
    ab = np.diff(leaf.points, axis=0)[None, :, :]
    p = points[:, None, :]
    t = np.clip(np.sum((p - a) * ab, axis=2) / np.sum(ab * ab, axis=2), 0.0, 1.0)
    dist = np.linalg.norm(p - (a + t[:, :, None] * ab), axis=2)
    seg = dist.argmin(axis=1)
    rows = np.arange(points.shape[0])
    return dist[rows, seg], seg + t[rows, seg]


# -- cocycle solver ------------------------------------------------------------

# grid rows per block of the normal equations: the design is never held whole
_BLOCK_ROWS = 256
# points per evaluation of phi or psi on the solver's grids: bounds their tables and stacks
_CHUNK_ROWS = 4096


def _by_rows(fn, pts: np.ndarray) -> np.ndarray:
    """fn over the rows of pts, _CHUNK_ROWS at a time."""
    return np.concatenate([fn(pts[lo : lo + _CHUNK_ROWS]) for lo in range(0, pts.shape[0], _CHUNK_ROWS)])


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


def _axis_tables(pts: np.ndarray, order: int) -> np.ndarray:
    """exp(2 pi i x_j k) for k = -order..order, shape (d, n, 2 order + 1).

    Only k >= 0 is evaluated; k < 0 is its complex conjugate.
    """
    half = np.exp(1j * (2.0 * np.pi * pts.T[:, :, None] * np.arange(order + 1)))
    return np.concatenate([half[:, :, :0:-1].conj(), half], axis=2)


def _mode_exponentials(pts: np.ndarray, modes: np.ndarray, order: int) -> np.ndarray:
    """e^(2 pi i k.x) for each point and mode, shape (n, m): one gather per axis table."""
    tables = _axis_tables(pts, order)
    out = tables[0][:, modes[:, 0] + order]
    for j in range(1, pts.shape[1]):
        out *= tables[j][:, modes[:, j] + order]
    return out


@dataclass(frozen=True)
class CocycleSolution:
    """Mean + Fourier transfer function decomposition of an observable:
    phi - mean = psi(f x) - psi(x), or psi(x) - psi(f x) once `negated`."""

    mean: float
    modes: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    fourier_order: int
    residual: float
    obstruction: float

    def transfer(self, pts: np.ndarray) -> np.ndarray:
        """psi at each point of pts (n, d), axis by axis over a dense cube of coefficients.

        psi(x) = Re sum_k (a_k - i b_k) e^(2 pi i k.x): the cube holds a_k - i b_k
        at k + order, the first axis table contracts with it in one product and
        each further axis in one row-wise reduction.
        """
        if self.modes.size == 0:
            return np.zeros(pts.shape[0])
        n, d = pts.shape
        order = self.fourier_order
        side = 2 * order + 1
        cube = np.zeros((side,) * d, dtype=complex)
        cube[tuple((self.modes + order).T)] = self.cos_coeffs - 1j * self.sin_coeffs
        tables = _axis_tables(pts, order)
        acc = (tables[0] @ cube.reshape(side, -1)).reshape((n,) + (side,) * (d - 1))
        for table in tables[1:]:
            acc = np.einsum("nk...,nk->n...", acc, table)
        return acc.real

    @property
    def sup_transfer(self) -> float:
        return float(np.abs(self.cos_coeffs).sum() + np.abs(self.sin_coeffs).sum())

    def negated(self) -> "CocycleSolution":
        return replace(self, cos_coeffs=-self.cos_coeffs, sin_coeffs=-self.sin_coeffs)

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


def _segment_mean(f: TorusMap, phi, segments: int, segment_len: int, seed: int) -> float:
    """Average of phi along long forward orbit segments (telescoping-exact for
    coboundaries plus a constant).

    An observable with a segment form (`phi.orbit_sums`, see
    `stable_log_norm_observable`) gives each segment's sum in one pass that
    stores no per-step value; any other is evaluated point by point.
    """
    starts = np.random.default_rng(seed).random((segments, f.dim))
    orbit_sums = getattr(phi, "orbit_sums", None)
    if orbit_sums is not None:
        return float(np.sum(orbit_sums(starts, segment_len))) / (segments * segment_len)
    return float(np.mean(_by_rows(phi, f.orbit_points(starts, segment_len).reshape(-1, f.dim))))


def _periodic_obstruction(phi, mean: float, inventory: OrbitInventory) -> float:
    worst = 0.0
    for orbit in inventory:
        avg = float(np.mean(phi(orbit.points)))
        worst = max(worst, abs(avg - mean))
    return worst


def fourier_order_problem(d: int, order: int) -> str | None:
    """Why the cocycle solve in dimension d refuses `order`, or None when it takes it.

    The plane solve runs on a 64^2 grid, where modes k and k + 64 e_j coincide
    above order 31. The 20^d grid above the plane would alias only above 9, but
    its normal equations grow as (2N + 1)^(2d): order 6 has 2196 unknowns, order
    9 would have 6858 (a 376 MB Gram matrix in 3-D). An order below 1 has no
    mode to fit.
    """
    if order < 1:
        return "must be >= 1"
    if d == 2:
        if order > 31:
            return "must be <= 31; higher modes alias on the 64^2 cocycle grid, where k and k + 64 e_j coincide"
    elif order > 6:
        return (
            f"must be <= 6 in {d}-D; on the 20^{d} cocycle grid the normal equations "
            f"grow as (2N + 1)^{2 * d}"
        )
    return None


def _normal_equations(
    grid: np.ndarray, image: np.ndarray, rhs: np.ndarray, modes: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """D^T D and D^T rhs for D = [Re, Im] of E(F x) - E(x), one block of grid rows at a time;
    the Gram's upper triangle in row panels, so no temporary is as large as the Gram."""
    m2 = 2 * modes.shape[0]
    gram, moment = np.zeros((m2, m2)), np.zeros(m2)
    panels = [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, m2, _BLOCK_ROWS)]
    for lo in range(0, grid.shape[0], _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        delta = _mode_exponentials(image[rows], modes, order)
        delta -= _mode_exponentials(grid[rows], modes, order)
        block = np.concatenate([delta.real, delta.imag], axis=1)
        for p in panels:
            gram[p, p.start :] += block[:, p].T @ block[:, p.start :]
        moment += block.T @ rhs[rows]
    for p in panels:
        gram[p.stop :, p] = gram[p, p.stop :].T
    return gram, moment


def livschitz_solve(
    f: TorusMap, phi, inventory: OrbitInventory, fourier_order: int | None, obstruction_tol: float, seed: int
) -> CocycleSolution:
    """Decompose phi = mean + psi(f x) - psi(x) by grid least squares.

    The mean comes from _SEGMENTS orbit segments of _SEGMENT_LEN steps (exact
    up to 2 sup|psi|/len per segment when the decomposition exists), one sum
    per segment when phi has a segment form (`_segment_mean`); psi from
    least squares over Fourier modes |k|_inf <= fourier_order on a 64^2
    (plane) or 20^3 grid, with the sup residual measured through the fitted
    transfer function on a finer off-lattice grid. fourier_order defaults to
    16 in the plane and 6 above it; an order that fourier_order_problem
    refuses raises ValueError. The least squares runs on the normal equations,
    solved by LU: the design's condition number measured 4.0 to 10.6 on the
    shear, conjugated and product fixtures for epsilon up to 0.3 and orders up
    to 24, and 53 on shear_A0(0.05) at order 31. No phase holds more than the
    Gram and the copy its solve takes. The obstruction is the worst deviation
    of an average over an orbit of `inventory` from the mean; when it exceeds
    obstruction_tol the best fit is attached to ObstructionNonzero.
    """
    d = f.dim
    grid_n = 64 if d == 2 else 20
    if fourier_order is None:
        fourier_order = 16 if d == 2 else 6
    problem = fourier_order_problem(d, fourier_order)
    if problem:
        raise ValueError(f"fourier_order {fourier_order}: {problem}")

    probe = np.random.default_rng(seed + 1).random((64, d))
    probe_vals = phi(probe)
    if float(np.ptp(probe_vals)) < 1e-12:
        # a constant observable is its own mean with a zero transfer function
        mean = float(np.mean(probe_vals))
        modes = np.zeros((0, d), dtype=int)
        cos_c, sin_c = np.zeros(0), np.zeros(0)
        residual = float(np.ptp(probe_vals))
    else:
        mean = _segment_mean(f, phi, _SEGMENTS, _SEGMENT_LEN, seed)

        grid = grid_points(d, grid_n)
        modes = _half_space_modes(d, fourier_order)
        m = modes.shape[0]
        coeffs = np.linalg.solve(
            *_normal_equations(grid, f.torus_step(grid), _by_rows(phi, grid) - mean, modes, fourier_order)
        )
        cos_c, sin_c = coeffs[:m], coeffs[m:]

        fine_n = 97 if d == 2 else 23
        fine = grid_points(d, fine_n) + 0.37 / fine_n
        fit = CocycleSolution(mean, modes, cos_c, sin_c, fourier_order, 0.0, 0.0)
        coboundary = _by_rows(fit.transfer, f.torus_step(fine)) - _by_rows(fit.transfer, fine)
        residual = float(np.abs(_by_rows(phi, fine) - mean - coboundary).max())

    obstruction = _periodic_obstruction(phi, mean, inventory)
    sol = CocycleSolution(
        mean=mean,
        modes=modes,
        cos_coeffs=cos_c,
        sin_coeffs=sin_c,
        fourier_order=fourier_order,
        residual=residual,
        obstruction=obstruction,
    )
    if obstruction > obstruction_tol:
        raise ObstructionNonzero(
            f"periodic obstruction {obstruction:.3e} exceeds {obstruction_tol}", solution=sol
        )
    return sol


def stable_log_norm_observable(f: TorusMap, depth: int):
    """phi(x) = log of the contraction factor of DF on E^s_1 at x.

    E^s_1 comes from a depth-long window. On a perturbed map phi also has a
    segment form, `phi.orbit_sums(starts, length)`: the sums of phi over
    `length` steps of the orbits from `starts`, by `bundles.stable_log_sums`.
    """
    def phi(pts):
        w = np.einsum("nij,nj->ni", f.jacobian(pts), stable_direction_field(f, pts, depth))
        return np.log(np.linalg.norm(w, axis=1))

    if f.epsilon == 0.0:
        return phi

    def orbit_sums(starts, length):
        block = max(1, 2**14 // starts.shape[0])  # time steps; bounds the Jacobian stacks
        return stable_log_sums(f, f.orbit_jacobians(starts, length + depth - 1, block), depth)

    # a function attribute, so wrappers that copy __dict__ keep the segment form
    phi.orbit_sums = orbit_sums
    return phi


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


def _segment_crossing(poly_u: np.ndarray, poly_s: np.ndarray) -> np.ndarray:
    """First crossing point of the u-polyline through the s-polyline (2D)."""
    # nearest s-node of each u-node: |s|^2 - 2 u.s orders them like |u - s|^2,
    # with one (n_u, n_s) array in place of an (n_u, n_s, d) difference stack
    dist = poly_u @ (-2.0 * poly_s.T)
    dist += np.einsum("sd,sd->s", poly_s, poly_s)
    nearest = np.argmin(dist, axis=1)
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
                return p0 + t * (p1 - p0)
    raise NoIntersection("unstable leaf does not cross the target stable leaf")


# arclength of each side of the unstable leaf a point slides along
_SLIDE_LENGTH = 0.25


def unstable_holonomy(
    f: TorusMap, integrability: IntegrabilityReport, y: np.ndarray, targets: list[LeafPolyline], depth: int
) -> np.ndarray:
    """Slide each row of y (n, d) along its unstable leaf to the stable leaf targets[i].

    Row i of y must lie on the stable leaf of a point whose unstable leaf
    crosses targets[i] within _SLIDE_LENGTH. Refused unless `integrability`
    (the caller's scan of f) found the unstable direction branch-independent,
    since otherwise the holonomy is not well defined. Returns the
    intersection lift points (n, d).
    """
    if not integrability.integrable:
        raise RefusedNonIntegrable("unstable bundle not integrable; holonomy undefined")
    if f.dim != 2:
        raise ValueError("holonomy tracing implemented for the plane case")
    u_leaves = pull_back_leaves(f, y, _SLIDE_LENGTH, depth, unstable=True)
    return np.array([_segment_crossing(u.points, t.points) for u, t in zip(u_leaves, targets)])


@dataclass(frozen=True)
class HolonomyIsometryReport:
    samples: int
    max_relative_defect: float
    rows: tuple  # (sample, d_s_source, d_s_image, relative defect)

    def csv_rows(self) -> list[list[str]]:
        out = [["sample", "d_s_source", "d_s_image", "relative_defect"]]
        for s, a, b, r in self.rows:
            out.append([str(s), float_cell(a), float_cell(b), float_cell(r)])
        return out


def holonomy_isometry_check(
    f: TorusMap, integrability: IntegrabilityReport, psi: CocycleSolution, samples: int, seed: int, depth: int
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

    bases = pull_back_leaves(f, xs, 0.2, depth)
    primes = np.array([
        u.points[u.node_near_arc(u.arclength[u.center_index] + dx)]
        for u, dx in zip(pull_back_leaves(f, xs, 0.08, depth, unstable=True), delta)
    ])
    # half-length must exceed the largest base offset (0.16) so every slide lands
    targets = pull_back_leaves(f, primes, 0.44, depth)
    # the nodes a, b of each base leaf, and their slides to its target leaf
    nodes = [[b.node_near_arc(b.arclength[b.center_index] + o) for o in off] for b, off in zip(bases, offs)]
    slid = unstable_holonomy(
        f, integrability, np.concatenate([b.points[ab] for b, ab in zip(bases, nodes)]),
        [t for t in targets for _ in (0, 1)], depth,
    ).reshape(samples, 2, f.dim)

    rows = []
    for s, (base, target, (a, b), ends) in enumerate(zip(bases, targets, nodes, slid)):
        sa, sb = _nearest_on_polyline(ends, target)[1]
        d_src = affine_distance(base, a, b, psi)
        d_img = affine_distance(target, sa, sb, psi)
        rows.append((s, d_src, d_img, abs(d_img - d_src) / d_src))
    return HolonomyIsometryReport(
        samples=samples, max_relative_defect=float(np.max([r[3] for r in rows])), rows=tuple(rows)
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
    f: TorusMap, ce: ConjugacyEvaluator, psi: CocycleSolution, samples: int, seed: int, depth: int
) -> ConjugacyIsometryReport:
    """Compare the affine leaf metric with Euclidean distance after conjugating.

    Fits the one free scale between d^s(a, b) and |H(a) - H(b)|, with H from
    the evaluator `ce` of f, over node pairs more than 0.02 apart in
    arclength on stable leaves, and reports the worst relative deviation
    after scaling. `psi` is the transfer function of the stable cocycle;
    without one (a periodic obstruction) the metric does not exist and the
    check is not run.
    """
    rng = np.random.default_rng(seed)
    n_leaves = 8
    leaves = pull_back_leaves(f, rng.random((n_leaves, f.dim)), 0.3, depth)

    per_leaf = int(np.ceil(1.5 * samples / n_leaves))
    chosen = []  # (leaf, node a, node b)
    for leaf in leaves:
        ia = rng.integers(0, len(leaf), per_leaf)
        ib = rng.integers(0, len(leaf), per_leaf)
        ok = np.abs(leaf.arclength[ia] - leaf.arclength[ib]) > 0.02
        chosen += [(leaf, int(a), int(b)) for a, b in zip(ia[ok], ib[ok])]
    chosen = chosen[:samples]
    d_arr = np.array([affine_distance(leaf, a, b, psi) for leaf, a, b in chosen])
    ends = ce.apply(np.array([leaf.points[[a, b]] for leaf, a, b in chosen]).reshape(-1, f.dim))
    e_arr = np.linalg.norm(ends[0::2] - ends[1::2], axis=1)
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
