"""The most-contracted stable direction and branch-dependent unstable directions."""

import numpy as np
import pytest

from anosovlab.bundles import (
    _branch_walk_directions,
    _sample_codes,
    first_stable_direction,
    integrability_verdict,
)
from anosovlab.leafmetric import stable_direction_field
from anosovlab.util import pairwise_principal_angles, qr_pos


def _unit_eigvec(a: np.ndarray, which: int) -> np.ndarray:
    """Unit eigenvector for the eigenvalue ranked `which` by modulus (ascending)."""
    evals, vecs = np.linalg.eig(a)
    idx = np.argsort(np.abs(evals))[which]
    v = np.real(vecs[:, idx])
    return v / np.linalg.norm(v)


def _line_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angle between the lines of each row pair of u and v, (n, d) each."""
    return pairwise_principal_angles(np.stack([u, v], axis=1)[..., None])[:, 0]


def _pair_angle(b1: np.ndarray, b2: np.ndarray) -> float:
    """One pair at a time: two QR factorizations, two SVDs and atan2(sin, cos)."""
    q1, q2 = qr_pos(b1)[0], qr_pos(b2)[0]
    overlap = q1.T @ q2
    cos = np.linalg.svd(overlap, compute_uv=False).min()
    sin = np.linalg.svd(q2 - q1 @ overlap, compute_uv=False).max()
    return float(np.arctan2(sin, cos))


class TestStableSplitting:
    """The most-contracted stable direction and the linear unstable line."""

    def test_linear_directions_exact(self, linear_map):
        a = linear_map.model.array
        pt = np.array([[0.3, 0.7]])
        assert _line_angles(stable_direction_field(linear_map, pt), _unit_eigvec(a, 0)[None])[0] < 1e-12
        v_u = linear_map.model.unstable_subspace[:, 0]
        assert _line_angles(v_u[None], _unit_eigvec(a, 1)[None])[0] < 1e-12

    def test_shear_field_is_invariant(self, shear05, rng):
        """Df(x) e_s(x) must line up with e_s(f x)."""
        x = rng.random((6, 2))
        v = np.einsum("nij,nj->ni", shear05.jacobian(x), stable_direction_field(shear05, x))
        there = stable_direction_field(shear05, shear05.torus_step(x))
        assert _line_angles(v, there).max() < 1e-6

    def test_product_stable_avoids_circle_factor(self, product05):
        """The third coordinate is a doubling factor; the stable direction
        lives entirely in the invertible block."""
        v = stable_direction_field(product05, np.array([[0.3, 0.6, 0.1]]))
        assert abs(v[0, 2]) < 1e-9

    def test_convergence_gap_decays_at_spectral_ratio(self, conjugated05):
        """The depth-n direction against the depth-2n one, from the same orbit."""
        depths = np.arange(2, 12)
        [jacs] = conjugated05.orbit_jacobians(np.array([[0.37, 0.21]]), 2 * depths[-1], 2 * depths[-1])
        gaps = [
            _line_angles(
                first_stable_direction(conjugated05, jacs[:n], n)[0],
                first_stable_direction(conjugated05, jacs[: 2 * n], 2 * n)[0],
            )[0]
            for n in depths
        ]
        slope = np.polyfit(depths, np.log(gaps), 1)[0]
        target = np.log((2.0 - np.sqrt(2.0)) / (2.0 + np.sqrt(2.0)))
        assert abs(slope - target) / abs(target) < 0.05


class TestBranchDirections:
    def test_linear_branch_independent(self, linear_map):
        a = linear_map.model.array
        vu = _unit_eigvec(a, 1)
        codes = np.array([[0] * 10, [1, 0] * 5])
        bases = _branch_walk_directions(linear_map, np.array([[0.2, 0.9]]), codes)[0]
        assert _line_angles(bases[..., 0], np.broadcast_to(vu, (2, 2))).max() < 1e-12
        codes = np.array([[0] * 10, [1] * 10, [0, 1] * 5])
        bases = _branch_walk_directions(linear_map, np.array([[0.4, 0.9]]), codes)
        assert pairwise_principal_angles(bases).max() < 1e-12

    def test_conjugated_integrable(self, conjugated05):
        rep = integrability_verdict(conjugated05, samples=12, codes_per_point=5, seed=3)
        assert rep.integrable
        assert rep.max_spread <= 1e-3
        assert rep.witness is None

    def test_shear_not_integrable_with_witness(self, shear05):
        rep = integrability_verdict(shear05, samples=12, codes_per_point=5, seed=3)
        assert not rep.integrable
        assert rep.max_spread > 1e-2
        w = rep.witness
        assert w is not None
        # the witness pair must reproduce its reported angle
        codes = np.array([[int(c) for c in w["code_a"]], [int(c) for c in w["code_b"]]])
        bases = _branch_walk_directions(shear05, np.array([w["point"]]), codes)
        again = float(pairwise_principal_angles(bases).max())
        assert again == pytest.approx(w["angle"], abs=1e-9)

    def test_product_integrable(self, product05):
        rep = integrability_verdict(product05, samples=8, codes_per_point=4, seed=3)
        assert rep.integrable
        assert rep.max_spread <= 1e-3

    def test_one_code_per_point_refused(self, shear05):
        with pytest.raises(ValueError, match="no branch pair"):
            integrability_verdict(shear05, samples=3, codes_per_point=1)

    def test_csv_rows(self, shear05):
        rep = integrability_verdict(shear05, samples=3, codes_per_point=3, seed=3)
        rows = rep.csv_rows()
        assert rows[0] == ["point", "code_a", "code_b", "angle"]
        assert len(rows) == 1 + 3 * 3  # 3 points x C(3,2) pairs


class TestBatchedAngles:
    """All pairs in one QR and one SVD call equal the pair-by-pair loop."""

    @pytest.mark.parametrize("name", ["shear05", "conjugated05", "product05"])
    def test_match_pair_loop(self, name, request, rng):
        f = request.getfixturevalue(name)
        codes = _sample_codes(rng, f.degree, 6, 10)
        bases = _branch_walk_directions(f, rng.random((5, f.dim)), codes)
        assert bases.shape[-1] == f.dim - f.model.stable_dim  # m = 1 in the plane, 2 on T^3
        loop = [
            _pair_angle(bases[p, i], bases[p, j])
            for p in range(5)
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        assert pairwise_principal_angles(bases).ravel().tolist() == loop

    def test_verdict_rows_and_witness_match_pair_loop(self, shear05):
        rep = integrability_verdict(shear05, samples=6, codes_per_point=5, seed=3)
        rng = np.random.default_rng(3)
        pts = rng.random((6, 2))
        codes = _sample_codes(rng, shear05.degree, 5, 12)
        bases = _branch_walk_directions(shear05, pts, codes)
        loop = [
            _pair_angle(bases[p, i], bases[p, j])
            for p in range(6)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert [row[3] for row in rep.rows] == loop
        first_max = loop.index(max(loop))
        assert rep.max_spread == loop[first_max]
        assert rep.witness["angle"] == loop[first_max]
        assert rep.witness["point"] == rep.rows[first_max][0]

    def test_quarter_and_right_angles(self):
        assert _line_angles(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))[0] == pytest.approx(np.pi / 4)
        assert _line_angles(np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]))[0] == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("slope", [1e-10, 3e-13])
    def test_resolves_tiny_angles(self, slope):
        """The arccos of the cosine reads 0 below about 1.5e-8; the sine form does not."""
        want = pytest.approx(np.arctan(slope), rel=1e-6)
        assert _line_angles(np.array([[1.0, 0.0]]), np.array([[1.0, slope]]))[0] == want
        plane = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        tilted = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, slope]])
        assert pairwise_principal_angles(np.stack([plane, tilted]))[0] == want
