"""Torus map fixtures: lifts, inverses, preimage branches, cone certificates."""

import numpy as np
import pytest

from anosovlab.errors import CertificationFailed, NoConvergence, NotLocalDiffeo, UnknownFixture
from anosovlab.maps import TrigField, anosov_certificate, fixture_catalog, local_diffeo_margin
from anosovlab.util import torus_distance, wrap


def _fd_jacobian(f, x, eps=1e-6):
    d = x.shape[0]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = eps
        cols.append((f.evaluate(x + e) - f.evaluate(x - e)) / (2 * eps))
    return np.stack(cols, axis=-1)


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(UnknownFixture):
            fixture_catalog("does_not_exist")

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
            for x in rng.random((5, 2)):
                jac = f.jacobian(x)
                fd = _fd_jacobian(f, x)
                assert np.max(np.abs(jac - fd)) < 1e-6

    def test_step_with_jacobian_consistent(self, conjugated05, rng):
        t = rng.random((12, 2))
        img, jac = conjugated05.step_with_jacobian(t)
        assert np.max(torus_distance(img, wrap(conjugated05.evaluate(t)))) < 1e-10
        assert np.max(np.abs(jac - conjugated05.jacobian(t))) < 1e-9

    def test_invert_with_jacobian_consistent(self, conjugated05, rng):
        y = rng.random((12, 2))
        x, jac = conjugated05.invert_with_jacobian(y)
        assert np.max(np.abs(conjugated05.evaluate(x) - y)) < 1e-9
        assert np.max(np.abs(jac - conjugated05.jacobian(x))) < 1e-8

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
    """invert_with_displacement hands back phi and DF from its last pass."""

    @pytest.mark.parametrize("name", ["shear05", "product05", "conjugated05"])
    def test_matches_separate_calls(self, name, request, rng):
        f = request.getfixturevalue(name)
        y = rng.random((33, f.dim)) * 4 - 2
        x, disp, jac = f.invert_with_displacement(y)
        assert np.array_equal(x, f.invert(y))
        assert np.array_equal(disp, f.displacement(x))
        if f.conjugator is None:
            assert np.array_equal(jac, f.jacobian(x))
        else:
            assert jac is None
        x1, disp1, _ = f.invert_with_displacement(y[3])
        assert np.array_equal(x1, f.invert(y[3])) and np.array_equal(disp1, f.displacement(x1))
        image, disp = f.evaluate_with_displacement(x)
        assert np.array_equal(image, f.evaluate(x)) and np.array_equal(disp, f.displacement(x))

    @pytest.mark.parametrize("name", ["shear05", "product05"])
    def test_trig_invert_with_jacobian_reads_the_last_pass(self, name, request, rng, monkeypatch):
        f = request.getfixturevalue(name)
        y = rng.random((9, f.dim)) * 4 - 2
        want = (f.invert(y), f.jacobian(f.invert(y)))
        with monkeypatch.context() as m:
            for attr in ("evaluate", "jacobian"):
                m.setattr(TrigField, attr, lambda self, x: pytest.fail("extra trig pass"))
            got = f.invert_with_jacobian(y)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_singular_jacobian_refused(self):
        """DF(x) = ((3, 1), (1 + 2 cos 2 pi x_1, 1)) is singular at x_1 = 0, where
        the constant term leaves a residual, so the first Newton step is refused."""
        terms = {1: [((1, 0), 0.0, 1.0), ((0, 0), 1.0, 0.0)]}
        f = fixture_catalog("custom", epsilon=1.0 / np.pi, custom={"matrix": ((3, 1), (1, 1)), "terms": terms})
        with pytest.raises(NotLocalDiffeo, match="determinant"):
            f.invert(f.model.array @ np.array([0.0, 0.5]))

    def test_no_convergence(self, shear05, conjugated05, rng):
        y = rng.random((4, 2)) * 4 - 2
        with pytest.raises(NoConvergence, match="stalled"):
            shear05.invert(y, tol=1e-30)
        with pytest.raises(NoConvergence, match="verified residual"):
            conjugated05.invert(y, tol=1e-30)


class TestPreimages:
    @pytest.mark.parametrize("name,eps", [
        ("linear_A0", 0.0), ("shear_A0", 0.05), ("conjugated_A0", 0.05),
    ])
    def test_full_preimage_set(self, name, eps, rng):
        f = fixture_catalog(name, eps)
        x = rng.random(2)
        pre = f.preimages(x)
        assert pre.shape == (f.degree, 2)
        for p in pre:
            assert torus_distance(wrap(f.evaluate(p)), x) < 1e-8
        # distinct branches
        gaps = [
            torus_distance(pre[i], pre[j])
            for i in range(len(pre))
            for j in range(i + 1, len(pre))
        ]
        assert min(gaps) > 1e-3

    def test_product_has_degree_two(self, product05):
        assert product05.degree == 2
        pre = product05.preimages(np.array([0.3, 0.4, 0.5]))
        assert pre.shape == (2, 3)


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
        """step_with_jacobian equals wrap(F), DF from two passes, bit for bit."""
        for f in (shear05, product05):
            t = rng.random((n, f.dim))
            want = (wrap(f.evaluate(t)), f.jacobian(t))
            with monkeypatch.context() as m:
                for name in ("evaluate", "jacobian"):
                    m.setattr(TrigField, name, lambda self, x: pytest.fail("second trig pass"))
                got = f.step_with_jacobian(t)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

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
