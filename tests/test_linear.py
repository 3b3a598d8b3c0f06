"""Exact linear-model analysis, lattice cosets, preimage density."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anosovlab.errors import NotHyperbolic
from anosovlab.intlinalg import int_pow
from anosovlab.linear import (
    IntMatrix,
    _matrix_sign,
    analyze_matrix,
    coset_representatives,
    covering_radius_table,
    deep_lattice_vectors,
    minimal_deep_vector,
    preimage_covering_radius,
)
from anosovlab.util import grid_points, torus_delta, torus_distance, wrap

A0 = ((3, 1), (1, 1))
MU_S = 2.0 - np.sqrt(2.0)


def preimage_points(rows, k: int) -> np.ndarray:
    """All |det A|^k torus points x with A^k x in Z^d, by digit expansion.

    A transversal of Z^d / A^k Z^d is {r_0 + A r_1 + ... + A^{k-1} r_{k-1}}
    over single-step representatives r_j; the preimage set is its image
    under A^{-k}, wrapped to [0,1)^d.
    """
    m = IntMatrix(rows)
    reps = np.array(coset_representatives(m).representatives, dtype=float)
    pts = np.zeros((1, m.dim))
    for _ in range(k):
        pts = (reps[:, None, :] + pts[None, :, :] @ m.array.T).reshape(-1, m.dim)
    ak = np.array(int_pow(m.entries, k), dtype=float)
    return wrap(np.linalg.solve(ak, pts.T).T)


class TestAnalyzeMatrix:
    def test_char_poly_constant_first(self):
        model = analyze_matrix(A0)
        assert model.char_poly == (2, -4, 1)

    def test_irreducible(self):
        assert analyze_matrix(A0).irreducible

    def test_reducible_product_matrix(self):
        model = analyze_matrix(((2, 1, 0), (1, 1, 0), (0, 0, 2)))
        assert not model.irreducible

    def test_stable_eigenvalue_exact(self):
        model = analyze_matrix(A0)
        assert model.stable_dim == 1
        assert abs(model.stable_eigenvalues[0] - MU_S) <= 1e-12
        assert abs(model.stable_exponents[0] - np.log(MU_S)) <= 1e-12

    def test_degree_is_abs_det(self):
        assert analyze_matrix(A0).degree == 2

    def test_projections_sum_to_identity(self):
        model = analyze_matrix(A0)
        total = model.stable_projection + model.unstable_projection
        assert np.allclose(total, np.eye(2), atol=1e-12)
        # idempotent and A-commuting
        a = model.array
        assert np.allclose(model.stable_projection @ model.stable_projection,
                           model.stable_projection, atol=1e-12)
        assert np.allclose(a @ model.stable_projection, model.stable_projection @ a,
                           atol=1e-12)

    def test_stable_line_is_eigenvector(self):
        model = analyze_matrix(A0)
        v = model.stable_lines[0]
        assert np.allclose(model.array @ v, model.stable_eigenvalues[0] * v, atol=1e-12)

    def test_rejects_eigenvalue_on_unit_circle(self):
        with pytest.raises(NotHyperbolic):
            analyze_matrix(((1, 1), (0, 1)))

    def test_cubic_two_stable_directions(self):
        model = analyze_matrix(((0, 0, -2), (1, 0, 1), (0, 1, 6)))
        assert model.stable_dim == 2
        assert model.irreducible
        assert model.char_poly == (2, -1, -6, 1)
        mods = np.abs(model.stable_eigenvalues)
        assert mods[0] <= mods[1] < 1.0


class TestLattice:
    def test_coset_count_matches_degree(self):
        coset = coset_representatives(A0)
        assert coset.degree == 2

    def test_preimage_point_counts(self):
        for k in range(0, 5):
            assert preimage_points(A0, k).shape == (2**k, 2)

    def test_preimages_map_to_origin(self):
        a = np.array(A0, dtype=float)
        for k in range(1, 5):
            pts = preimage_points(A0, k)
            img = pts.copy()
            for _ in range(k):
                img = img @ a.T
            # A^k maps every point to a lattice point
            assert np.max(np.abs(img - np.round(img))) < 1e-9

    def test_deep_vectors_live_in_deep_lattice(self):
        a = np.array(A0, dtype=float)
        for m in range(1, 7):
            vec = np.array(minimal_deep_vector(A0, m), dtype=float)
            pre = vec.copy()
            for _ in range(m):
                pre = np.linalg.solve(a, pre)
            assert np.allclose(pre, np.round(pre), atol=1e-9)

    def test_deep_vectors_bounded_enumeration(self):
        vecs = deep_lattice_vectors(A0, 2, 10.0)
        assert (0, 0) in vecs
        assert any(any(c != 0 for c in v) for v in vecs)
        for v in vecs:
            assert np.linalg.norm(v) <= 10.0 + 1e-9


# (matrix, stable dimension): the plane model, the reducible product, the
# irreducible cubic, the companion of x^3 - x - 1 (a complex stable pair), an
# expanding matrix and a cubic with a complex unstable pair
SPECTRAL_CASES = [
    (A0, 1),
    (((2, 1, 0), (1, 1, 0), (0, 0, 2)), 1),
    (((0, 0, -2), (1, 0, 1), (0, 1, 6)), 2),
    (((0, 0, 1), (1, 0, 1), (0, 1, 0)), 2),
    (((2, 1), (1, 3)), 0),
    (((0, 0, 2), (1, 0, -3), (0, 1, 1)), 1),
]


@pytest.mark.parametrize("rows", [((2,),), ((0, 0, 0, -3), (1, 0, 0, 1), (0, 1, 0, -5), (0, 0, 1, 4))])
def test_kernels_stop_at_three_dimensions(rows):
    """A 1x1 or 4x4 matrix is refused before any spectral data is computed."""
    d = len(rows)
    with pytest.raises(ValueError, match=f"matrix is {d}x{d}; the kernels support 2x2 and 3x3"):
        analyze_matrix(rows)


@pytest.mark.parametrize("rows, k", SPECTRAL_CASES)
class TestSpectralProjection:
    def test_projector_identities(self, rows, k):
        model = analyze_matrix(rows)
        a, p = model.array, model.stable_projection
        assert model.stable_dim == k
        assert np.abs(p @ p - p).max() <= 1e-13
        assert np.abs(a @ p - p @ a).max() <= 1e-12
        assert abs(np.trace(p) - k) <= 1e-13

    def test_matches_the_eigenvector_projector(self, rows, k):
        model = analyze_matrix(rows)
        vals, vecs = np.linalg.eig(model.array)
        keep = np.diag((np.abs(vals) < 1.0).astype(float))
        want = (vecs @ keep @ np.linalg.inv(vecs)).real
        assert np.abs(model.stable_projection - want).max() <= 1e-12

    def test_bases_are_orthonormal_ranges(self, rows, k):
        model = analyze_matrix(rows)
        d = model.dim
        for basis, proj, dim in (
            (model.stable_basis, model.stable_projection, k),
            (model.unstable_subspace, model.unstable_projection, d - k),
        ):
            assert basis.shape == (d, dim)
            assert np.abs(basis.T @ basis - np.eye(dim)).max(initial=0.0) <= 1e-13
            assert np.abs(proj @ basis - basis).max(initial=0.0) <= 1e-12


def test_matrix_sign_iteration_cap_raises():
    """Eigenvalues on the imaginary axis have no sign; Newton's iteration never settles."""
    with pytest.raises(ArithmeticError, match="did not converge"):
        _matrix_sign(np.array([[0.0, 2.0], [-2.0, 0.0]]))


def _brute_force_radius(rows, k):
    """Grid maximum of the distance to the nearest of the 3^d-tiled preimage points."""
    d = len(rows)
    pts = preimage_points(rows, k)
    offsets = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * d, indexing="ij"), axis=-1).reshape(-1, d)
    tiled = (pts[None, :, :] + offsets[:, None, :]).reshape(-1, d)
    grid = grid_points(d, 64 if d == 2 else 32)
    nearest = np.empty(grid.shape[0])
    for lo in range(0, grid.shape[0], 4096):
        diff = grid[lo : lo + 4096, None, :] - tiled[None, :, :]
        nearest[lo : lo + 4096] = np.sqrt(np.einsum("gpd,gpd->gp", diff, diff).min(axis=1))
    return float(nearest.max())


class TestCoveringRadius:
    @pytest.mark.parametrize(
        "rows, k_max",
        [(A0, 5), (((2, 1, 0), (1, 1, 0), (0, 0, 2)), 3), (((0, 0, -2), (1, 0, 1), (0, 1, 6)), 3)],
    )
    def test_closest_vector_search_matches_brute_force(self, rows, k_max):
        for k in range(k_max + 1):
            want = _brute_force_radius(rows, k)
            assert preimage_covering_radius(rows, k) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_k0_is_half_diagonal(self):
        # the only preimage at k=0 is the origin itself
        r0 = preimage_covering_radius(A0, 0)
        assert abs(r0 - np.sqrt(2.0) / 2.0) <= 1e-12

    def test_density_law_to_depth_8(self):
        table = covering_radius_table(A0, 8)
        assert len(table) == 9
        for entry in table[1:]:
            assert entry["radius"] <= entry["bound"] * (1 + 1e-9)

    def test_two_step_ratio_window(self):
        table = covering_radius_table(A0, 8)
        radii = [e["radius"] for e in table]
        for k in range(len(radii) - 2):
            ratio = radii[k + 2] / radii[k]
            assert 0.4 <= ratio <= 0.65

    def test_radii_decrease(self):
        radii = [e["radius"] for e in covering_radius_table(A0, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))


# -- property tests ------------------------------------------------------------

small_int_matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2
).map(lambda rows: tuple(tuple(r) for r in rows)).filter(
    lambda m: abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) >= 1
)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices)
def test_coset_representatives_complete(rows):
    """Representatives cover Z^2 / A Z^2 exactly once."""
    coset = coset_representatives(rows)
    det = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    assert coset.degree == det
    reps = np.array(coset.representatives, dtype=float)
    a_inv_reps = np.linalg.solve(np.array(rows, dtype=float), reps.T).T
    # entries of A^{-1} r are exact multiples of 1/det
    scaled = a_inv_reps * det
    assert np.allclose(scaled, np.round(scaled), atol=1e-6)
    keys = {tuple(row) for row in np.round(scaled).astype(int) % det}
    assert len(keys) == det


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
)
def test_torus_metric_invariants(xs, ys):
    x, y = np.array(xs), np.array(ys)
    delta = torus_delta(x, y)
    assert np.all(np.abs(delta) <= 0.5 + 1e-9)
    assert torus_distance(x, y) == pytest.approx(torus_distance(y, x), abs=1e-9)
    # translation invariance of the quotient metric
    shift = np.array([3.0, -7.0])
    assert torus_distance(x + shift, y + shift) == pytest.approx(
        torus_distance(x, y), abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=2))
# -2.2e-16 wraps to 1 - 2.2e-16, but -2.2e-16 + 5.0 rounds to exactly 5.0,
# which wraps to 0.0: the two results sit on either side of the seam.
@example(xs=[0.0, -2.220446049250313e-16])
def test_wrap_idempotent_and_in_cell(xs):
    x = np.array(xs)
    w = wrap(x)
    assert np.all((w >= 0.0) & (w < 1.0))
    assert np.allclose(wrap(w), w, atol=1e-12)
    # equal as points of the torus, which R-distance misses across the seam
    assert np.allclose(torus_delta(wrap(x + 5.0), w), 0.0, atol=1e-9)


def test_int_matrix_power_exact():
    m = IntMatrix(A0)
    assert IntMatrix(int_pow(m.entries, 3)).det == m.det**3
    assert np.array_equal(IntMatrix(int_pow(m.entries, 2)).array, m.array @ m.array)
