"""Torus map fixtures: lifts, inverses, preimage branches, cone certificates."""

import numpy as np
import pytest

from anosovlab import maps
from anosovlab.errors import (
    CertificationFailed,
    IncompleteEnumeration,
    NoConvergence,
    NotLocalDiffeo,
    UnknownFixture,
)
from anosovlab.maps import TorusMap, TrigField, anosov_certificate, fixture_catalog, local_diffeo_margin
from anosovlab.util import pairwise_principal_angles, qr_pos, torus_distance, wrap


def _fd_jacobian(f, x, eps=1e-6):
    """Central differences of F at the rows of x (n, d), shape (n, d, d)."""
    steps = eps * np.eye(x.shape[1])
    return np.stack([(f.evaluate(x + e) - f.evaluate(x - e)) / (2 * eps) for e in steps], axis=-1)


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(UnknownFixture):
            fixture_catalog("does_not_exist", 0.0)

    def test_linear_rejects_epsilon(self):
        with pytest.raises(ValueError):
            fixture_catalog("linear_A0", 0.1)

    def test_labels(self, shear05, conjugated05):
        assert shear05.label == "shear_A0(0.05)"
        assert conjugated05.label == "conjugated_A0(0.05)"

    def test_custom_fixture(self):
        f = fixture_catalog(
            "custom",
            epsilon=0.03,
            custom={"matrix": ((3, 1), (1, 1)), "terms": {1: [((1, 0), 0.0, 1.0)]}},
        )
        assert f.dim == 2 and f.epsilon == 0.03


class TestLiftStructure:
    @pytest.mark.parametrize("name,eps", [
        ("linear_A0", 0.0), ("shear_A0", 0.05), ("conjugated_A0", 0.05),
        ("product_T3", 0.05),
    ])
    def test_lattice_equivariance(self, name, eps, rng):
        """F(x + n) = F(x) + A n for integer n: F is a lift of a torus map."""
        f = fixture_catalog(name, eps)
        x = rng.random((20, f.dim))
        n = rng.integers(-3, 4, (20, f.dim)).astype(float)
        lhs = f.evaluate(x + n)
        rhs = f.evaluate(x) + n @ f.model.array.T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_jacobian_matches_finite_differences(self, shear05, conjugated05, rng):
        for f in (shear05, conjugated05):
            x = rng.random((5, 2))
            assert np.max(np.abs(f.jacobian(x) - _fd_jacobian(f, x))) < 1e-6

    def test_orbit_jacobians_consistent(self, conjugated05, rng):
        """DF along the chart walk against DF at the points of the torus orbit."""
        t = rng.random((12, 2))
        [jacs] = conjugated05.orbit_jacobians(t, 3, 3)
        orbit = conjugated05.orbit_points(t, 3)
        assert np.max(np.abs(jacs - conjugated05.jacobian(orbit.reshape(-1, 2)).reshape(3, 12, 2, 2))) < 1e-9

    def test_invert_is_right_inverse(self, shear05, rng):
        y = rng.random((30, 2)) * 4 - 2  # lift points well outside the cell
        x = shear05.invert(y)
        assert np.max(np.abs(shear05.evaluate(x) - y)) < 1e-9
        assert np.max(np.abs(shear05.invert(y) - x)) == 0.0  # repeatable bit for bit

    def test_orbit_points_matches_stepping(self, conjugated05, shear05, rng):
        # rounding gaps between the two evaluation paths grow like the
        # unstable multiplier (~3.4^n), so keep the comparison window short
        for f in (conjugated05, shear05):
            starts = rng.random((6, 2))
            orbit = f.orbit_points(starts, 8)
            t = wrap(starts)
            for step in range(8):
                assert np.max(torus_distance(orbit[step], t)) < 1e-10
                t = f.torus_step(t)


class TestInverseWithData:
    """The lift inverse, and F and phi at its points."""

    @pytest.mark.parametrize("name", ["shear05", "product05", "conjugated05"])
    def test_matches_separate_calls(self, name, request, rng):
        """evaluate_with_displacement at the inverse's points gives F and phi of evaluate and
        displacement, and F lands back on the targets."""
        f = request.getfixturevalue(name)
        y = rng.random((33, f.dim)) * 4 - 2
        x = f.invert(y)
        image, disp = f.evaluate_with_displacement(x)
        assert np.array_equal(image, f.evaluate(x)) and np.array_equal(disp, f.displacement(x))
        assert np.abs(image - y).max() < 1e-9

    def test_residual_verified_row_by_row(self, conjugated05, monkeypatch):
        """A row off its own tolerance fails whatever rows share its batch: next to
        a row of size 5e7 its residual is far below the batch's largest scale."""
        chart_inverse = type(conjugated05)._chart_inverse

        def spoiled(self, y):
            z = chart_inverse(self, y)
            z[0] += 1e3 * maps._PREIMAGE_TOL  # ten times the verified bound
            return z

        monkeypatch.setattr(type(conjugated05), "_chart_inverse", spoiled)
        y = np.array([[0.3, 0.4], [0.6, 0.2]])
        for rest in ([], [[5e7, -3e7]], [[0.1, 0.9]] * 5 + [[-2e7, 4e7]]):
            batch = np.concatenate([y, np.reshape(rest, (-1, 2))])
            with pytest.raises(NoConvergence, match="verified residual"):
                conjugated05.invert(batch)

    def test_singular_jacobian_refused(self):
        """DF(x) = ((3, 1), (1 + 2 cos 2 pi x_1, 1)) is singular at x_1 = 0, where
        the constant term leaves a residual, so the first Newton step is refused."""
        terms = {1: [((1, 0), 0.0, 1.0), ((0, 0), 1.0, 0.0)]}
        f = fixture_catalog("custom", epsilon=1.0 / np.pi, custom={"matrix": ((3, 1), (1, 1)), "terms": terms})
        with pytest.raises(NotLocalDiffeo, match="determinant"):
            f.invert(np.array([[0.0, 0.5]]) @ f.model.array.T)

    def test_no_convergence(self, shear05, conjugated05, rng, monkeypatch):
        monkeypatch.setattr(maps, "_PREIMAGE_TOL", 1e-30)
        y = rng.random((4, 2)) * 4 - 2
        with pytest.raises(NoConvergence, match="stalled"):
            shear05.invert(y)
        with pytest.raises(NoConvergence, match="verified residual"):
            conjugated05.invert(y)


def _stepwise_orbit_displacements(f, starts, length):
    t, out = wrap(starts), []
    for _ in range(length):
        image, disp = f.evaluate_with_displacement(t)
        out.append(disp)
        t = wrap(image)
    return np.stack(out)


def _stepwise_preimage_displacements(f, y, length):
    out = []
    for _ in range(length):
        y = f.invert(y)
        out.append(f.displacement(y))
    return np.stack(out)


def _stepwise_iterate_with_jacobian(f, x, n):
    acc = np.broadcast_to(np.eye(f.dim), x.shape + (f.dim,)).copy()
    for _ in range(n):
        x, acc = f.evaluate(x), f.jacobian(x) @ acc
    return x, acc


def _stepwise_orbit_jacobians(f, starts, length):
    t, out = starts, []
    for _ in range(length):
        out.append(f.jacobian(t))
        t = f.torus_step(t)
    return np.stack(out)


def _stepwise_branch_jacobians(f, starts, shifts):
    t, out = starts, []
    for shift in shifts:
        t = wrap(f.invert(t + shift))
        out.append(f.jacobian(t))
    return np.stack(out)


def _stepwise_wrapped_walk(f, starts, steps, inverse):
    ends, offsets = starts, []
    for _ in range(steps):
        y = (f.invert if inverse else f.evaluate)(ends)
        offsets.append(np.floor(y))
        ends = y - offsets[-1]
    return ends, np.array(offsets)


def _stepwise_shifted_walk(f, x, shifts, inverse):
    for k in shifts:
        x = (f.invert if inverse else f.evaluate)((x + k).reshape(-1, f.dim)).reshape(x.shape)
    return x


def _pushed_unstable(f, jacs):
    """The linear unstable subspace pushed forward along jacs, deepest first."""
    basis = np.broadcast_to(f.model.unstable_subspace, jacs.shape[1:-1] + (f.dim - f.model.stable_dim,))
    for jac in jacs[::-1]:
        basis, _ = qr_pos(jac @ basis)
    return basis


_WALKED = ["linear_map", "shear05", "product05", "conjugated05"]


class TestOrbitWalks:
    """Each orbit walk against its per-step loop: a map with the identity chart
    (linear or trig) runs that loop, bit for bit; a conjugated map walks in
    the chart G, and rounding that the hyperbolic steps amplify keeps the
    comparison to a few steps. The loops step back with `invert`, here at the
    walks' own lift-inverse tolerance."""

    @pytest.fixture(autouse=True)
    def _walk_tolerance(self, monkeypatch):
        monkeypatch.setattr(maps, "_PREIMAGE_TOL", maps._INVERT_TOL)

    @staticmethod
    def _agree(f, got, want, tol=1e-12):
        if f.conjugator is None:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("name", _WALKED)
    def test_displacements(self, name, request, rng):
        f = request.getfixturevalue(name)
        x = rng.random((9, f.dim)) * 4 - 2
        self._agree(f, f.orbit_displacements(x, 5), _stepwise_orbit_displacements(f, x, 5))
        y = rng.random((9, f.dim))
        self._agree(f, f.preimage_displacements(y, 3), _stepwise_preimage_displacements(f, y, 3))

    @pytest.mark.parametrize("name", _WALKED)
    def test_iterate_with_jacobian(self, name, request, rng):
        f = request.getfixturevalue(name)
        x = rng.random((9, f.dim))
        got, want = f.iterate_with_jacobian(x, 2), _stepwise_iterate_with_jacobian(f, x, 2)
        self._agree(f, got[0], want[0])
        self._agree(f, got[1], want[1])

    @pytest.mark.parametrize("name", _WALKED)
    def test_orbit_jacobians(self, name, request, rng):
        """Blocks of 2 steps walk on from each other as one orbit of 3 steps."""
        f = request.getfixturevalue(name)
        x = rng.random((9, f.dim)) * 4 - 2  # lift points: the walk starts at them unwrapped
        blocks = list(f.orbit_jacobians(x, 3, 2))
        assert [b.shape[0] for b in blocks] == [2, 1]
        self._agree(f, np.concatenate(blocks), _stepwise_orbit_jacobians(f, x, 3))

    @pytest.mark.parametrize("name", _WALKED)
    def test_branch_jacobians(self, name, request, rng):
        f = request.getfixturevalue(name)
        starts = rng.random((10, f.dim))
        shifts = rng.integers(0, 2, (12, 10, f.dim)).astype(float)
        got = f.branch_jacobians(starts, shifts, maps._INVERT_TOL)
        want = _stepwise_branch_jacobians(f, starts, shifts)
        if f.conjugator is None:
            assert np.array_equal(got, want)
        else:
            pair = np.stack([_pushed_unstable(f, got), _pushed_unstable(f, want)], axis=1)
            assert pairwise_principal_angles(pair).max() <= 1e-10

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("name", _WALKED)
    def test_wrapped_and_shifted_walks(self, name, inverse, request, rng):
        f = request.getfixturevalue(name)
        starts = rng.random((6, f.dim))
        ends, offsets = f.wrapped_walk(starts, 3, inverse)
        want_ends, want_offsets = _stepwise_wrapped_walk(f, starts, 3, inverse)
        self._agree(f, ends, want_ends)
        assert np.array_equal(offsets, want_offsets)
        segment = want_ends[:, None, :] + np.linspace(0.0, 0.02, 5)[:, None] * f.model.stable_lines[0]
        # back along the walk, as a leaf is pulled back
        shifts = offsets[::-1, :, None]
        got = f.shifted_walk(segment, shifts, not inverse)
        self._agree(f, got, _stepwise_shifted_walk(f, segment, shifts, not inverse))


class TestPreimages:
    @pytest.mark.parametrize("name,eps", [
        ("linear_A0", 0.0), ("shear_A0", 0.05), ("conjugated_A0", 0.05),
    ])
    def test_full_preimage_set(self, name, eps, rng):
        f = fixture_catalog(name, eps)
        x = rng.random((1, 2))
        [pre] = f.preimages(x)
        assert pre.shape == (f.degree, 2)
        assert torus_distance(wrap(f.evaluate(pre)), x).max() < 1e-8
        # distinct branches
        gaps = [
            torus_distance(pre[i], pre[j])
            for i in range(len(pre))
            for j in range(i + 1, len(pre))
        ]
        assert min(gaps) > 1e-3

    def test_product_has_degree_two(self, product05):
        assert product05.degree == 2
        pre = product05.preimages(np.array([[0.3, 0.4, 0.5]]))
        assert pre.shape == (1, 2, 3)

    def test_first_collision_named(self, monkeypatch):
        """Branches that coincide are refused, naming the first colliding pair in
        (row, i, j) order: here row 0's pair (1, 2) before row 1's pair (0, 1)."""
        f = fixture_catalog("custom", 0.0, custom={"matrix": ((4, 1), (1, 1))})
        assert f.degree == 3
        invert = TorusMap.invert

        def collide(self, y):
            x = invert(self, y).reshape(-1, 3, 2)
            x[0, 2] = x[0, 1] + 1.0  # the same torus point
            x[1, 1] = x[1, 0]
            return x.reshape(-1, 2)

        monkeypatch.setattr(TorusMap, "invert", collide)
        t = np.array([[0.3, 0.4], [0.6, 0.2], [0.1, 0.7]])
        with pytest.raises(IncompleteEnumeration, match=r"^branches 1 and 2 collided at ") as exc_info:
            f.preimages(t)
        assert "distance < 1e-10" in str(exc_info.value)


class TestTrigField:
    def test_evaluate_and_jacobian_consistent(self, rng):
        field = TrigField.from_terms(
            2, {0: [((1, 2), 0.3, -0.7)], 1: [((2, 0), 0.1, 0.4), ((0, 1), -0.2, 0.0)]}
        )
        x = rng.random((40, 2))
        val, jac = field.evaluate_and_jacobian(x)
        assert np.max(np.abs(val - field.evaluate(x))) == 0.0
        assert np.max(np.abs(jac - field.jacobian(x))) == 0.0

    def test_methods_match_the_separate_trig_formulas(self, rng):
        field = TrigField.from_terms(
            3, {0: [((1, 2, 0), 0.3, -0.7)], 2: [((2, 0, 1), 0.1, 0.4), ((0, 1, 3), -0.2, 0.0)]}
        )
        x = rng.random((64, 3)) * 5.0 - 2.0
        val, jac = np.zeros_like(x), np.zeros(x.shape + (3,))
        for i in range(3):
            k = field.freqs[i]
            if k.size == 0:
                continue
            theta = 2.0 * np.pi * ((x @ k.T) % 1.0)
            val[:, i] = np.cos(theta) @ field.cos_coeffs[i] + np.sin(theta) @ field.sin_coeffs[i]
            weight = -np.sin(theta) * field.cos_coeffs[i] + np.cos(theta) * field.sin_coeffs[i]
            jac[:, i, :] = 2.0 * np.pi * (weight @ k)
        assert np.array_equal(field.evaluate(x), val)
        assert np.array_equal(field.jacobian(x), jac)
        both = field.evaluate_and_jacobian(x)
        assert np.array_equal(both[0], val) and np.array_equal(both[1], jac)

    @pytest.mark.parametrize("n", [1, 2, 7, 4096])
    def test_step_takes_one_trig_pass(self, shear05, product05, n, rng, monkeypatch):
        """Each step of `orbit_jacobians` gives wrap(F) and DF from one trig pass;
        they equal the two separate passes, bit for bit."""
        for f in (shear05, product05):
            t = rng.random((n, f.dim))
            want = np.stack([f.jacobian(t), f.jacobian(wrap(f.evaluate(t)))])
            with monkeypatch.context() as m:
                for name in ("evaluate", "jacobian"):
                    m.setattr(TrigField, name, lambda self, x: pytest.fail("second trig pass"))
                [got] = f.orbit_jacobians(t, 2, 2)
            assert np.array_equal(got, want)

    def test_sup_bound_dominates_samples(self, rng):
        field = TrigField.from_terms(2, {0: [((1, 1), 0.5, 0.5)], 1: [((1, 0), 0.0, 1.0)]})
        x = rng.random((500, 2))
        assert np.linalg.norm(field.evaluate(x), axis=1).max() <= field.sup_bound() + 1e-12

    def test_rejects_fractional_frequency(self):
        with pytest.raises(ValueError):
            TrigField.from_terms(2, {0: [((0.5, 1), 1.0, 0.0)]})


class TestCertificates:
    def test_linear_certified(self, linear_map):
        cert = anosov_certificate(linear_map)
        assert cert.certified
        assert cert.expansion_min > 1.0
        assert cert.backward_expansion_min > 1.0

    def test_conjugated_certified(self, conjugated05):
        cert = anosov_certificate(conjugated05)
        assert cert.certified
        assert cert.grid_sensitivity < 0.1

    def test_strong_shear_fails_with_witness(self):
        f = fixture_catalog("shear_A0", 0.25)
        with pytest.raises(CertificationFailed) as exc_info:
            anosov_certificate(f)
        assert exc_info.value.witness is not None

    def test_diffeo_margin_linear_is_det(self, linear_map):
        margin, _ = local_diffeo_margin(linear_map)
        assert margin == pytest.approx(2.0, abs=1e-12)

    def test_diffeo_margin_positive_on_catalog(self, shear05, conjugated05, product05):
        for f in (shear05, conjugated05, product05):
            margin, worst = local_diffeo_margin(f)
            assert margin > 0.5
            assert worst.shape == (f.dim,)
