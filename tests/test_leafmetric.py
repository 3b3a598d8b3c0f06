"""Pulled-back leaves, the cocycle solver, the affine leaf metric, and holonomies."""

import functools
import tracemalloc

import numpy as np
import pytest

from anosovlab import bundles
from anosovlab.bundles import (
    _branch_walk_directions,
    _generic_frame,
    first_stable_direction,
    integrability_verdict,
    stable_log_sums,
)
from anosovlab.conjugacy import conjugacy_evaluator
from anosovlab.errors import (
    GapTooSmall,
    NoIntersection,
    ObstructionNonzero,
    RefusedNonIntegrable,
)
from anosovlab.leafmetric import (
    CocycleSolution,
    _half_space_modes,
    _segment_mean,
    affine_distance,
    conjugacy_leaf_isometry_check,
    holonomy_isometry_check,
    livschitz_solve,
    pull_back_leaves,
    stable_direction_field,
    stable_log_norm_observable,
    unstable_holonomy,
)
from anosovlab.linear import coset_representatives
from anosovlab.maps import fixture_catalog
from anosovlab.orbits import enumerate_orbits
from anosovlab.util import grid_points, qr_pos
from leafchecks import leaf_invariance_defect, map_polyline, tangency_residual

MU_S = 2.0 - np.sqrt(2.0)
X0 = np.array([[0.3, 0.4]])  # one lift point, as a (1, d) batch


def _stable_psi(f):
    """Transfer function of the stable log-contraction cocycle, as the metric stage solves it."""
    phi = stable_log_norm_observable(f, 12)
    return livschitz_solve(f, phi, enumerate_orbits(f, 3), None, 1e-4, 0).negated()


def _quick_scan(f):
    """A small branch-spread scan, the verdict the holonomy functions trust."""
    return integrability_verdict(f, samples=10, codes_per_point=4, depth=10, tol=1e-3, seed=0)


def _eig_dirs(a: np.ndarray):
    evals, vecs = np.linalg.eig(a)
    i_s = int(np.argmin(np.abs(evals)))
    v_s = vecs[:, i_s] / np.linalg.norm(vecs[:, i_s])
    v_u = vecs[:, 1 - i_s] / np.linalg.norm(vecs[:, 1 - i_s])
    return np.real(v_s), np.real(v_u)


class TestTraces:
    def test_linear_leaf_is_straight(self, linear_map):
        [leaf] = pull_back_leaves(linear_map, X0, 0.3, 12)
        field = functools.partial(stable_direction_field, linear_map, depth=12)
        assert tangency_residual(leaf, field) < 1e-14
        v_s, _ = _eig_dirs(linear_map.model.array)
        rel = leaf.points - leaf.points[leaf.center_index]
        cross = rel[:, 0] * v_s[1] - rel[:, 1] * v_s[0]
        assert np.abs(cross).max() < 1e-12
        # on a straight leaf the arclength is the euclidean distance from node 0
        chord = np.linalg.norm(leaf.points - leaf.points[0], axis=1)
        assert np.abs(chord - leaf.arclength).max() < 1e-9

    def test_linear_image_contracts_at_eigenrate(self, linear_map):
        [leaf] = pull_back_leaves(linear_map, X0, 0.3, 12)
        image = map_polyline(linear_map, leaf)
        assert image.arclength[-1] / leaf.arclength[-1] == pytest.approx(MU_S, abs=1e-12)

    def test_shear_leaf_tangent_and_invariant(self, shear05):
        [leaf] = pull_back_leaves(shear05, X0, 0.3, 12)
        assert tangency_residual(leaf, functools.partial(stable_direction_field, shear05, depth=12)) < 1e-6
        assert leaf_invariance_defect(shear05, leaf) < 1e-6

    def test_conjugated_contraction_near_eigenrate(self, conjugated05):
        [leaf] = pull_back_leaves(conjugated05, X0, 0.3, 12)
        ratio = map_polyline(conjugated05, leaf).arclength[-1] / leaf.arclength[-1]
        assert abs(ratio - MU_S) < 0.05

    def test_batched_traces_match_single(self, shear05):
        starts = np.array([[0.2, 0.6], [0.7, 0.1]])
        batch = pull_back_leaves(shear05, starts, 0.1, 12)
        for row, leaf in enumerate(batch):
            [single] = pull_back_leaves(shear05, starts[row : row + 1], 0.1, 12)
            assert np.array_equal(leaf.points, single.points)

    def test_linear_unstable_trace(self, linear_map):
        [leaf] = pull_back_leaves(linear_map, X0, 0.2, 12, unstable=True)
        assert tangency_residual(leaf, lambda mids: linear_map.model.unstable_subspace[:, 0]) < 1e-12
        _, v_u = _eig_dirs(linear_map.model.array)
        rel = leaf.points - leaf.points[leaf.center_index]
        cross = rel[:, 0] * v_u[1] - rel[:, 1] * v_u[0]
        assert np.abs(cross).max() < 1e-12

    def test_conjugated_unstable_leaf_follows_the_zero_branch(self, conjugated05):
        """An unstable leaf is pushed along the wrapped lift preimage orbit, which
        is the branch of the all-zero code: representative 0 is the zero vector."""
        assert np.array_equal(coset_representatives(conjugated05.model.matrix)[0], [0.0, 0.0])
        [leaf] = pull_back_leaves(conjugated05, X0, 0.2, 12, unstable=True)
        codes = np.zeros((1, 12), dtype=int)

        def zero_branch(mids):
            return _branch_walk_directions(conjugated05, mids, codes)[:, 0, :, 0]

        assert tangency_residual(leaf, zero_branch) < 1e-6

    @pytest.mark.parametrize("depth", [12, 24])
    @pytest.mark.parametrize("name", ["shear05", "conjugated05"])
    def test_pull_back_pitfalls(self, name, depth, request):
        """Unwrapped orbits collapse the nodes by depth 20; one segment length for
        both sides leaves the side the metric shrinks short of L."""
        f = request.getfixturevalue(name)
        L = 0.3
        for leaf in pull_back_leaves(f, np.random.default_rng(5).random((8, 2)), L=L, depth=depth):
            assert np.isfinite(leaf.points).all()
            assert (np.linalg.norm(np.diff(leaf.points, axis=0), axis=1) > 0).all()
            center = leaf.arclength[leaf.center_index]
            assert center >= L and leaf.arclength[-1] - center >= L
            assert tangency_residual(leaf, functools.partial(stable_direction_field, f, depth=12)) < 1e-6
            assert leaf_invariance_defect(f, leaf, depth=depth) < 1e-6

    def test_node_near_arc(self, linear_map):
        [leaf] = pull_back_leaves(linear_map, X0, 0.1, 12)
        assert leaf.node_near_arc(0.0) == 0
        assert leaf.node_near_arc(float(leaf.arclength[-1])) == len(leaf) - 1


def _transpose_recursion(f, jacs, depth):
    """The plane kernel before the adjugate chain, kept as the reference: J^T
    walked on the unstable line from each window's far end, then turned a
    quarter."""
    windows = jacs.shape[0] - depth + 1
    v = np.broadcast_to(f.model.unstable_subspace[:, 0], (windows,) + jacs.shape[1:-1]).copy()
    for j in range(depth - 1, -1, -1):
        v = np.einsum("tnji,tnj->tni", jacs[j : j + windows], v)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _descending_frame(jacs, depth):
    """QR frames whose leading columns span realized-growth flags at the endpoint:
    the forward QR chain of Ginelli et al., PRL 99, 130601 (2007), over every
    window of `depth` consecutive factors. jacs (T + depth - 1, n, d, d) gives
    frames (T, n, d, d), window t applying jacs[t] first."""
    windows = jacs.shape[0] - depth + 1
    n, d = jacs.shape[1], jacs.shape[-1]
    q = np.broadcast_to(_generic_frame(d), (windows, n, d, d)).copy()
    for j in range(depth):
        q, _ = qr_pos(jacs[j : j + windows] @ q)
    return q


def _ascending_frame(jacs, depth):
    """The d = 3 reference before the adjugate chain: QR frames of the
    transposed cocycle over each depth-window, run from the window's far end,
    so that the last column spans the most-contracted direction."""
    return _descending_frame(np.swapaxes(jacs[::-1], -1, -2), depth)[::-1]


def _orbit_jacobians(f, rng, n, length):
    orbit = f.orbit_points(rng.random((n, f.dim)), length)
    return f.jacobian(orbit.reshape(-1, f.dim)).reshape(orbit.shape + (f.dim,))


class TestStableKernel:
    @pytest.mark.parametrize("name", ["shear05", "conjugated05"])
    def test_plane_equals_transpose_recursion(self, name, request, rng):
        f = request.getfixturevalue(name)
        jacs = _orbit_jacobians(f, rng, 40, 140)
        assert np.array_equal(first_stable_direction(f, jacs, 12), _transpose_recursion(f, jacs, 12))

    def test_three_dimensions_against_a_deep_chain(self, product05, rng):
        """Depth 12 against the QR chain at depth 40, whose error is at rounding level."""
        jacs = _orbit_jacobians(product05, rng, 7, 60)
        reference = _ascending_frame(jacs, 40)[..., 2]
        windows = reference.shape[0]

        def error(v):
            return np.linalg.norm(np.cross(v[:windows], reference), axis=-1).max()

        kernel = first_stable_direction(product05, jacs, 12)
        assert np.allclose(np.linalg.norm(kernel, axis=-1), 1.0)
        assert error(kernel) < 1e-10
        assert error(kernel) < error(_ascending_frame(jacs, 12)[..., 2])

    def test_gap_reads_the_linear_spectrum(self, product05, rng, monkeypatch):
        """The middle and smallest rates sit near log 2 and log((3 - 5^0.5) / 2), 1.66 apart."""
        jacs = _orbit_jacobians(product05, rng, 5, 30)
        monkeypatch.setattr(bundles, "_MIN_GAP", 1.4)
        first_stable_direction(product05, jacs, 12)
        monkeypatch.setattr(bundles, "_MIN_GAP", 2.0)
        with pytest.raises(GapTooSmall):
            first_stable_direction(product05, jacs, 12)

    def test_four_dimensions_refused(self):
        """The kernels stop at d = 3, so no 4x4 map is built for them."""
        matrix = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))
        with pytest.raises(ValueError, match="4x4; the kernels support 2x2 and 3x3"):
            fixture_catalog("custom", 0.0, custom={"matrix": matrix})


class TestOrbitForm:
    """The stable log-contraction observable's segment form, one adjugate product per orbit."""

    @pytest.mark.parametrize("name", ["shear05", "product05"])
    def test_matches_pointwise_phi(self, name, request, rng):
        """Per-orbit sums against depth-48 pointwise windows, whose error is at rounding level."""
        f = request.getfixturevalue(name)
        starts = rng.random((6, f.dim))
        sums = stable_log_norm_observable(f, depth=12).orbit_sums(starts, 300)
        assert sums.shape == (6,)
        orbit = f.orbit_points(starts, 300).reshape(-1, f.dim)
        deep = stable_log_norm_observable(f, depth=48)(orbit).reshape(300, 6).sum(axis=0)
        assert np.abs(sums - deep).max() < 1e-10

    @pytest.mark.parametrize("name", ["shear05", "product05"])
    def test_blocks_shorter_than_the_tail(self, name, request, rng):
        """Blocks of 7 steps, fewer than the 11 that close a depth-12 window, match one block."""
        f = request.getfixturevalue(name)
        starts = rng.random((5, f.dim))
        whole = stable_log_sums(f, f.orbit_jacobians(starts, 211, 211), 12)
        split = stable_log_sums(f, f.orbit_jacobians(starts, 211, 7), 12)
        assert np.abs(split - whole).max() < 1e-12 * np.abs(whole).max()

    def test_windows_match_per_point_chains(self, shear05, rng):
        orbit = shear05.orbit_points(rng.random((5, 2)), 20)
        jacs = shear05.jacobian(orbit.reshape(-1, 2)).reshape(20, 5, 2, 2)
        windows = first_stable_direction(shear05, jacs, 12)
        assert windows.shape == (9, 5, 2)
        for t in range(9):
            assert np.array_equal(windows[t], stable_direction_field(shear05, orbit[t], 12))

    def test_gap_still_checked(self, product05, rng, monkeypatch):
        """Every depth-window of the 3-D segment path is checked, across block ends: the
        middle and smallest rates sit 1.66 apart."""
        starts = rng.random((3, 3))
        monkeypatch.setattr(bundles, "_MIN_GAP", 1.4)
        stable_log_sums(product05, product05.orbit_jacobians(starts, 40, 16), 12)
        monkeypatch.setattr(bundles, "_MIN_GAP", 2.0)
        with pytest.raises(GapTooSmall):
            stable_log_sums(product05, product05.orbit_jacobians(starts, 40, 16), 12)

    def test_linear_map_has_no_orbit_form(self, linear_map):
        """Its phi is constant; the solver never walks orbits for it."""
        assert not hasattr(stable_log_norm_observable(linear_map, 12), "orbit_sums")

    @pytest.mark.parametrize("name", ["shear05", "conjugated05", "product05"])
    def test_segment_mean_matches_deep_windows(self, name, request):
        """The product form against depth-48 windows point by point; a seed at the segment's
        end that is not pushed back through the tail misses by about 1e-6."""
        f = request.getfixturevalue(name)
        phi = stable_log_norm_observable(f, depth=12)
        traced = functools.wraps(phi)(lambda pts: phi(pts))
        assert traced.orbit_sums is phi.orbit_sums
        deep = stable_log_norm_observable(f, depth=48)

        def pointwise(pts):
            return deep(pts)

        product = _segment_mean(f, traced, 16, 400, seed=4)
        assert abs(product - _segment_mean(f, pointwise, 16, 400, seed=4)) < 1e-12


class TestCocycleSolver:
    def test_recovers_manufactured_coboundary(self, shear05, rng):
        def psi_true(p):
            return 0.3 * np.cos(2 * np.pi * (p[:, 0] + p[:, 1])) - 0.2 * np.sin(
                2 * np.pi * p[:, 0]
            )

        def phi(p):
            return -0.4 + psi_true(shear05.torus_step(p)) - psi_true(p)

        sol = livschitz_solve(shear05, phi, enumerate_orbits(shear05, 3), 8, 1e-4, 0)
        assert abs(sol.mean + 0.4) < 1e-3
        assert sol.residual < 1e-3
        assert sol.obstruction < 1e-4
        pts = rng.random((60, 2))
        assert np.abs(sol.transfer(pts) - psi_true(pts)).max() < 1e-4

    def test_recovers_manufactured_coboundary_in_three_dimensions(self, product05, rng):
        """The d = 3 design and transfer, with the order clamped to 6 on the 20^3 grid."""
        def psi_true(p):
            return 0.3 * np.cos(2 * np.pi * (p[:, 0] - 2 * p[:, 2])) + 0.2 * np.sin(
                2 * np.pi * (p[:, 1] + 6 * p[:, 2])
            )

        def phi(p):
            return -0.4 + psi_true(product05.torus_step(p)) - psi_true(p)

        sol = livschitz_solve(product05, phi, enumerate_orbits(product05, 2), None, 1e-4, 0)
        assert sol.fourier_order == 6
        assert abs(sol.mean + 0.4) < 1e-3
        assert sol.residual < 1e-3
        pts = rng.random((60, 3))
        assert np.abs(sol.transfer(pts) - psi_true(pts)).max() < 1e-4

    @pytest.mark.parametrize("d, order", [(2, 16), (3, 6)])
    def test_transfer_matches_the_trig_sum(self, d, order, rng):
        """The per-axis contraction against sum_k a_k cos(2 pi k.x) + b_k sin(2 pi k.x)."""
        modes = _half_space_modes(d, order)
        a, b = rng.standard_normal((2, modes.shape[0]))
        sol = CocycleSolution(0.0, modes, a, b, order, 0.0, 0.0)
        pts = rng.random((500, d))
        theta = 2 * np.pi * (pts @ modes.T)
        want = np.cos(theta) @ a + np.sin(theta) @ b
        assert np.abs(sol.transfer(pts) - want).max() <= 1e-12 * sol.sup_transfer

    def test_normal_equations_match_lstsq(self, shear05):
        """The blocked Cholesky solve against an SVD least squares on the whole cos/sin design."""
        phi = stable_log_norm_observable(shear05, depth=12)
        with pytest.raises(ObstructionNonzero) as exc_info:
            livschitz_solve(shear05, phi, enumerate_orbits(shear05, 3), 8, 1e-4, 0)
        sol = exc_info.value.solution
        grid = grid_points(2, 64)

        def design(pts):
            theta = 2 * np.pi * (pts @ sol.modes.T)
            return np.concatenate([np.cos(theta), np.sin(theta)], axis=1)

        want, *_ = np.linalg.lstsq(
            design(shear05.torus_step(grid)) - design(grid), phi(grid) - sol.mean, rcond=None
        )
        got = np.concatenate([sol.cos_coeffs, sol.sin_coeffs])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_order_that_aliases_on_the_grid_is_refused(self, shear05):
        """Order 32 puts 4224 unknowns on 4096 points, where k and k + 64 e_j coincide."""
        def phi(p):
            return np.zeros(p.shape[0])

        inventory = enumerate_orbits(shear05, 1)
        assert livschitz_solve(shear05, phi, inventory, 31, 1e-4, 0).fourier_order == 31
        with pytest.raises(ValueError, match="alias on the 64\\^2 cocycle grid"):
            livschitz_solve(shear05, phi, inventory, 32, 1e-4, 0)

    def test_order_above_six_in_three_dimensions_is_refused(self, product05):
        """The 20^3 grid takes orders up to 6; a higher order is an error, not a silent clamp."""
        def phi(p):
            return np.zeros(p.shape[0])

        inventory = enumerate_orbits(product05, 1)
        assert livschitz_solve(product05, phi, inventory, 6, 1e-4, 0).fourier_order == 6
        with pytest.raises(ValueError, match="fourier_order 16: must be <= 6 in 3-D; on the 20\\^3 cocycle grid"):
            livschitz_solve(product05, phi, inventory, 16, 1e-4, 0)

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_is_refused(self, shear05, order):
        phi = stable_log_norm_observable(shear05, 12)
        with pytest.raises(ValueError, match=f"fourier_order {order}: must be >= 1"):
            livschitz_solve(shear05, phi, enumerate_orbits(shear05, 1), order, 1e-4, 0)

    @pytest.mark.parametrize("name, order", [("shear05", None), ("conjugated05", 16)])
    def test_working_set_bounded(self, name, order, request):
        """The solve at the metric stage's arguments holds at most 24 MiB of traced
        allocations: the Gram and the copy its solve takes, about 18 MiB at order 16."""
        f = request.getfixturevalue(name)
        phi = stable_log_norm_observable(f, depth=12)
        inventory = enumerate_orbits(f, 3)
        tracemalloc.start()
        try:
            livschitz_solve(f, phi, inventory, fourier_order=order, obstruction_tol=1e-4, seed=17)
        except ObstructionNonzero:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_non_coboundary_raises_with_best_fit(self, shear05):
        def phi(p):
            return np.cos(2 * np.pi * p[:, 0])

        with pytest.raises(ObstructionNonzero) as exc_info:
            livschitz_solve(shear05, phi, enumerate_orbits(shear05, 3), 8, 1e-4, 0)
        sol = exc_info.value.solution
        assert sol is not None
        assert sol.obstruction > 0.5

    def test_linear_cocycle_is_constant(self, linear_map):
        psi = _stable_psi(linear_map)
        assert psi.mean == pytest.approx(np.log(MU_S), abs=1e-12)
        assert psi.sup_transfer == 0.0
        assert psi.obstruction < 1e-12

    def test_cubic_constant(self, cubic):
        psi = _stable_psi(cubic)
        assert psi.mean == pytest.approx(cubic.model.stable_exponents[0], abs=1e-12)
        assert psi.sup_transfer == 0.0

    def test_conjugated_psi(self, conjugated05, conjugated_psi):
        psi = conjugated_psi
        assert abs(psi.mean - np.log(MU_S)) < 1e-4
        assert psi.residual < 2e-3
        assert psi.obstruction < 1e-4

    def test_negated_flips(self, conjugated_psi, rng):
        back = conjugated_psi.negated()
        pts = rng.random((20, 2))
        assert np.array_equal(back.transfer(pts), -conjugated_psi.transfer(pts))

    def test_csv_rows(self, conjugated_psi):
        rows = conjugated_psi.csv_rows()
        assert rows[0] == ["mode_count", "mean", "residual", "obstruction"]
        assert len(rows) == 2


class TestAffineDistance:
    def test_plain_arclength(self, linear_map):
        [leaf] = pull_back_leaves(linear_map, X0, 0.1, 12)
        total = affine_distance(leaf, 0, len(leaf) - 1, None)
        assert total == pytest.approx(float(leaf.arclength[-1]), abs=1e-12)
        # order does not matter, fractional endpoints interpolate
        assert affine_distance(leaf, len(leaf) - 1, 0, None) == pytest.approx(
            total, abs=1e-12
        )
        first_seg = float(np.linalg.norm(leaf.points[1] - leaf.points[0]))
        assert affine_distance(leaf, 0, 0.5, None) == pytest.approx(
            0.5 * first_seg, abs=1e-12
        )
        with pytest.raises(ValueError):
            affine_distance(leaf, -1, 2, None)

    def test_weight_bounds(self, conjugated05, conjugated_psi):
        [leaf] = pull_back_leaves(conjugated05, X0, 0.1, 12)
        plain = affine_distance(leaf, 0, len(leaf) - 1, None)
        weighted = affine_distance(leaf, 0, len(leaf) - 1, conjugated_psi)
        hi = float(np.exp(conjugated_psi.sup_transfer))
        assert plain / hi <= weighted <= plain * hi


class TestHolonomy:
    def test_linear_slide_exact(self, linear_map):
        v_s, v_u = _eig_dirs(linear_map.model.array)
        y = X0 + 0.06 * v_s
        xp = X0 + 0.07 * v_u
        targets = pull_back_leaves(linear_map, xp, 0.5, 12)
        got = unstable_holonomy(linear_map, _quick_scan(linear_map), y, targets, 12)
        assert np.abs(got - (X0 + 0.07 * v_u + 0.06 * v_s)).max() < 1e-9

    def test_no_intersection_when_target_too_short(self, linear_map):
        v_s, v_u = _eig_dirs(linear_map.model.array)
        y = X0 + 0.45 * v_s
        short = pull_back_leaves(linear_map, X0 + 0.07 * v_u, 0.1, 12)
        with pytest.raises(NoIntersection):
            unstable_holonomy(linear_map, _quick_scan(linear_map), y, short, 12)

    def test_refused_on_non_integrable(self, shear05):
        scan = _quick_scan(shear05)
        assert not scan.integrable
        targets = pull_back_leaves(shear05, X0 + 0.01, 0.5, 12)
        with pytest.raises(RefusedNonIntegrable):
            unstable_holonomy(shear05, scan, X0 + 0.02, targets, 12)
        with pytest.raises(RefusedNonIntegrable):
            holonomy_isometry_check(shear05, scan, None, samples=2, seed=0, depth=12)

    def test_plane_only(self, cubic):
        with pytest.raises(ValueError):
            unstable_holonomy(cubic, _quick_scan(cubic), np.zeros((1, 3)), [], 12)

    def test_isometry_on_conjugated(self, conjugated05, conjugated_psi):
        rep = holonomy_isometry_check(
            conjugated05, _quick_scan(conjugated05), conjugated_psi, samples=8, seed=23, depth=12
        )
        assert rep.max_relative_defect < 1e-4
        assert len(rep.rows) == 8
        assert rep.csv_rows()[0] == ["sample", "d_s_source", "d_s_image", "relative_defect"]


class TestConjugacyIsometry:
    def test_linear_exact(self, linear_map):
        psi = _stable_psi(linear_map)
        ce = conjugacy_evaluator(linear_map, 1e-9, None)
        rep = conjugacy_leaf_isometry_check(linear_map, ce, psi, samples=20, seed=19, depth=12)
        assert rep.status == "ok"
        assert rep.scale == pytest.approx(1.0, abs=1e-12)
        assert rep.max_relative_deviation < 1e-12

    def test_conjugated_isometric_after_scale(self, conjugated05, conjugated_psi):
        rep = conjugacy_leaf_isometry_check(
            conjugated05, conjugacy_evaluator(conjugated05, 1e-9, None), conjugated_psi, samples=25, seed=19,
            depth=12,
        )
        assert rep.status == "ok"
        assert rep.scale == pytest.approx(1.0, abs=1e-2)
        assert rep.max_relative_deviation < 1e-4
        assert rep.pairs == 25
        assert rep.csv_rows()[0] == ["pair", "d_s", "linear_distance", "scaled_deviation"]
