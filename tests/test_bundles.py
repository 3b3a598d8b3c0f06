"""Invariant splittings and branch-dependent unstable directions."""

import numpy as np
import pytest

from anosovlab.bundles import (
    _branch_walk_directions,
    _sample_codes,
    integrability_verdict,
    stable_splitting_at,
)
from anosovlab.errors import GapTooSmall
from anosovlab.util import largest_principal_angle, orthonormal_columns, pairwise_principal_angles


def _unit_eigvec(a: np.ndarray, which: int) -> np.ndarray:
    """Unit eigenvector for the eigenvalue ranked `which` by modulus (ascending)."""
    evals, vecs = np.linalg.eig(a)
    idx = np.argsort(np.abs(evals))[which]
    v = np.real(vecs[:, idx])
    return v / np.linalg.norm(v)


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.arccos(min(1.0, abs(float(u @ v)))))


def _pair_angle(b1: np.ndarray, b2: np.ndarray) -> float:
    """One pair at a time: two QR factorizations, two SVDs and atan2(sin, cos)."""
    q1, q2 = orthonormal_columns(b1), orthonormal_columns(b2)
    overlap = q1.T @ q2
    cos = np.linalg.svd(overlap, compute_uv=False).min()
    sin = np.linalg.svd(q2 - q1 @ overlap, compute_uv=False).max()
    return float(np.arctan2(sin, cos))


class TestStableSplitting:
    def test_linear_directions_exact(self, linear_map):
        s = stable_splitting_at(linear_map, [0.3, 0.7])
        a = linear_map.model.array
        assert _angle(s.stable_directions[:, 0], _unit_eigvec(a, 0)) < 1e-12
        assert _angle(s.unstable_subspace[:, 0], _unit_eigvec(a, 1)) < 1e-12
        assert s.convergence_gap < 1e-10
        assert s.rates[0] > 0 > s.rates[1]
        # QR preserves determinants, so per-step rates sum to log|det A|
        assert sum(s.rates) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_cubic_two_stable_directions(self, cubic):
        s = stable_splitting_at(cubic, [0.2, 0.5, 0.8], depth=32)
        a = cubic.model.array
        assert s.stable_directions.shape == (3, 2)
        assert _angle(s.stable_directions[:, 0], _unit_eigvec(a, 0)) < 1e-4
        assert _angle(s.stable_directions[:, 1], _unit_eigvec(a, 1)) < 1e-4
        assert list(s.rates) == sorted(s.rates, reverse=True)
        assert sum(r < 0 for r in s.rates) == 2

    def test_shear_field_is_invariant(self, shear05, rng):
        """Df(x) e_s(x) must line up with e_s(f x)."""
        for x in rng.random((6, 2)):
            here = stable_splitting_at(shear05, x)
            there = stable_splitting_at(shear05, shear05.torus_step(x))
            v = shear05.jacobian(x) @ here.stable_directions[:, 0]
            v /= np.linalg.norm(v)
            assert _angle(v, there.stable_directions[:, 0]) < 1e-6

    def test_product_stable_avoids_circle_factor(self, product05):
        """The third coordinate is a doubling factor; the stable direction
        lives entirely in the invertible block."""
        s = stable_splitting_at(product05, [0.3, 0.6, 0.1])
        assert abs(s.stable_directions[2, 0]) < 1e-9
        assert s.stable_directions.shape == (3, 1)
        assert sum(r < 0 for r in s.rates) == 1

    def test_convergence_gap_decays_at_spectral_ratio(self, conjugated05):
        # compare only depths 3..7: past that the angles saturate near
        # machine epsilon and the fit flattens
        gaps = [
            stable_splitting_at(conjugated05, [0.37, 0.21], depth=n).convergence_gap
            for n in range(3, 8)
        ]
        slope = np.polyfit(np.arange(3, 8), np.log(gaps), 1)[0]
        target = np.log((2.0 - np.sqrt(2.0)) / (2.0 + np.sqrt(2.0)))
        assert abs(slope - target) / abs(target) < 0.05

    def test_gap_threshold_enforced(self, linear_map):
        with pytest.raises(GapTooSmall):
            stable_splitting_at(linear_map, [0.3, 0.7], min_gap=10.0)


class TestBranchDirections:
    def test_linear_branch_independent(self, linear_map):
        a = linear_map.model.array
        vu = _unit_eigvec(a, 1)
        codes = np.array([[0] * 10, [1, 0] * 5])
        for u in _branch_walk_directions(linear_map, np.array([[0.2, 0.9]]), codes)[0]:
            assert _angle(u[:, 0], vu) < 1e-12
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
        assert largest_principal_angle(bases[0, 1], bases[0, 4]) == _pair_angle(bases[0, 1], bases[0, 4])

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

    def test_vectors_and_dimension_check(self):
        assert largest_principal_angle([1.0, 0.0], [1.0, 1.0]) == pytest.approx(np.pi / 4)
        assert largest_principal_angle([1.0, 0.0], [0.0, 2.0]) == pytest.approx(np.pi / 2)
        with pytest.raises(ValueError, match="dimensions differ"):
            largest_principal_angle(np.eye(3)[:, :2], np.eye(3)[:, :1])

    @pytest.mark.parametrize("slope", [1e-10, 3e-13])
    def test_resolves_tiny_angles(self, slope):
        """The arccos of the cosine reads 0 below about 1.5e-8; the sine form does not."""
        want = pytest.approx(np.arctan(slope), rel=1e-6)
        assert largest_principal_angle([1.0, 0.0], [1.0, slope]) == want
        plane = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        tilted = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, slope]])
        assert largest_principal_angle(plane, tilted) == want
