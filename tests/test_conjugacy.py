"""Conjugacy evaluator: series oracle, certified tails, translation defects."""

import numpy as np
import pytest

from anosovlab.conjugacy import (
    _MAX_SERIES_DEPTH,
    ConjugacyEvaluator,
    _series_weights,
    conjugacy_evaluator,
    deep_translation_decay,
    displacement_field,
    specialness_defect,
)
from anosovlab.errors import NoConvergence
from anosovlab.intlinalg import int_pow
from anosovlab.linear import IntMatrix, analyze_matrix
from anosovlab.maps import TorusMap, TrigField, fixture_catalog
from anosovlab.util import wrap


def _eigen_projections(a: np.ndarray):
    """Spectral projections of a 2x2 matrix with real simple spectrum."""
    evals, vr = np.linalg.eig(a)
    vl = np.linalg.inv(vr)
    s = int(np.argmin(np.abs(evals)))
    u = 1 - s
    p = [np.real(np.outer(vr[:, k], vl[k])) for k in (s, u)]
    return float(np.real(evals[s])), float(np.real(evals[u])), p[0], p[1]


def _series_oracle(f, x: np.ndarray, depth: int) -> np.ndarray:
    """Direct evaluation of the two-sided series using scalar eigenvalue powers.

    Forward terms run on the torus (they are periodic); backward terms follow
    the genuine lift orbit.
    """
    mu_s, mu_u, p_s, p_u = _eigen_projections(f.model.array)
    acc = np.zeros_like(x)
    t = wrap(x)
    for n in range(depth):
        acc += mu_u ** -(n + 1) * (f.displacement(t) @ p_u.T)
        t = f.torus_step(t)
    y = np.array(x)
    for n in range(depth):
        y = f.invert(y)
        acc -= mu_s**n * (f.displacement(y) @ p_s.T)
    return acc


class TestEvaluator:
    def test_linear_H_is_identity(self, linear_map, rng):
        ce = conjugacy_evaluator(linear_map)
        x = rng.random((20, 2)) * 6 - 3
        assert np.array_equal(ce.apply(x), x)
        assert np.array_equal(ce.apply_inverse(x), x)
        assert ce.tail_bound == 0.0

    def test_matches_direct_series(self, shear05, rng):
        ce = conjugacy_evaluator(shear05, depth=14)
        x = rng.random((15, 2)) * 2 - 0.5
        assert np.abs(ce.h_displacement(x) - _series_oracle(shear05, x, 14)).max() < 1e-12

    def test_conjugated_matches_direct_series(self, conjugated05, rng):
        """The series walked in the chart G against the per-step oracle."""
        ce = conjugacy_evaluator(conjugated05, depth=14)
        x = rng.random((15, 2)) * 2 - 0.5
        assert np.abs(ce.h_displacement(x) - _series_oracle(conjugated05, x, 14)).max() < 1e-12

    def test_conjugated_H_equals_inner_inverse(self, conjugated05, rng):
        """For F = G A G^{-1} the bounded conjugacy is H = G^{-1}; solve for it
        directly by fixed-point iteration on z + eps*q(z) = y."""
        ce = conjugacy_evaluator(conjugated05)
        y = rng.random((25, 2)) * 2 - 0.5
        z = y.copy()
        for _ in range(300):
            q = 0.1 * np.stack(
                [np.sin(2 * np.pi * z[:, 1]), np.sin(2 * np.pi * z[:, 0])], axis=1
            )
            z_new = y - 0.05 * q
            if np.abs(z_new - z).max() < 1e-15:
                break
            z = z_new
        assert np.abs(ce.apply(y) - z).max() <= ce.tail_bound + 1e-12

    def test_residual_within_certified_tail(self, shear05, conjugated05):
        x = np.random.default_rng(3).random((100, 2))
        for f in (shear05, conjugated05):
            ce = conjugacy_evaluator(f)
            # sampled sup of |A H(x) - H(F x)|
            res = np.linalg.norm(ce.apply(x) @ f.model.array.T - ce.apply(f.evaluate(x)), axis=1).max()
            a_norm = np.linalg.norm(f.model.array, 2)
            assert res <= (a_norm + 1.0) * ce.tail_bound + 1e-12

    def test_small_shear_residual_and_roundtrip(self, shear02, rng):
        ce = conjugacy_evaluator(shear02)
        x = np.random.default_rng(3).random((100, 2))
        lhs, rhs = ce.apply(x) @ shear02.model.array.T, ce.apply(shear02.evaluate(x))
        assert np.linalg.norm(lhs - rhs, axis=1).max() <= 1e-6
        x = rng.random((40, 2)) * 2 - 0.5
        assert np.abs(ce.apply_inverse(ce.apply(x)) - x).max() <= 1e-8

    def test_inverse_rows_match_single_row_calls(self, shear05, rng, monkeypatch):
        """Each row of a batch solves as it would alone, and H is evaluated once
        per call: the series check of the orbit solution."""
        ce = conjugacy_evaluator(shear05)
        y = rng.random((24, 2))
        evaluated = []
        h = ConjugacyEvaluator.h_displacement
        monkeypatch.setattr(
            ConjugacyEvaluator, "h_displacement",
            lambda self, pts: evaluated.append(len(pts)) or h(self, pts),
        )
        batch = ce.apply_inverse(y)
        assert evaluated == [24]
        for row, target in zip(batch, y):
            evaluated.clear()
            assert np.array_equal(row, ce.apply_inverse(target))
            assert evaluated == [1]

    @pytest.mark.parametrize("fixture", ["shear05", "product05", "conjugated05"])
    def test_series_telescopes_to_the_orbit_ends(self, fixture, request):
        """H_N(x) = A^-N P_u F^N(x) + A^N P_s F^-N(x) on the lift, the identity
        that makes H(x) = y an orbit boundary-value problem."""
        f = request.getfixturevalue(fixture)
        n = 6
        ce = conjugacy_evaluator(f, depth=n)
        x = np.random.default_rng(5).random((20, f.dim)) * 2 - 0.5
        ends = [f.shifted_walk(x, np.zeros((n, f.dim)), inverse) for inverse in (False, True)]
        # A^-N P_u and A^N P_s from the invariant blocks: a plain A^-N would
        # amplify the rounding of P_u F^N(x) along E^s
        w_u, w_s = _series_weights(f.model, n + 1)
        ends_form = ends[0] @ w_u[n - 1].T + ends[1] @ w_s[n].T
        h = ce.apply(x)
        assert np.abs(ends_form - h).max() <= 1e-12 * np.abs(h).max()

    def test_wide_shear_roundtrip(self):
        """At epsilon 0.15 the truncated H is nearly flat along a direction close
        to E^s, so |H(x) - y| <= tol no longer pins x down; the orbit solve does."""
        f = fixture_catalog("shear_A0", 0.15)
        ce = conjugacy_evaluator(f)
        for seed in range(3):
            y = np.random.default_rng(seed).random((48, 2))
            assert np.abs(ce.apply_inverse(ce.apply(y)) - y).max() <= 2e-8

    def test_expanding_map_roundtrip(self):
        """With no stable direction the orbit solve has an empty stable block.
        The catalog refuses an expanding map, so it is built directly."""
        shear = TrigField.from_terms(2, {1: [((1, 0), 0.0, 1.0)]})
        f = TorusMap(model=analyze_matrix(((2, 1), (0, 2))), epsilon=0.05, perturbation=shear)
        assert f.model.stable_dim == 0
        ce = conjugacy_evaluator(f)
        y = np.random.default_rng(0).random((16, 2))
        assert np.abs(ce.apply_inverse(ce.apply(y)) - y).max() <= 1e-8

    def test_holder_conjugacy_fails_the_series_check(self):
        """On an irreducible T^3 shear with two unstable rates H is only Hoelder.
        The orbit solve still converges, but |H(x) - y| cannot reach 1e-10 in
        double precision, and the series check reports it."""
        cubic = {"matrix": ((0, 0, -2), (1, 0, 3), (0, 1, 2)), "terms": {2: [((1, 0, 0), 0.0, 1.0)]}}
        f = fixture_catalog("custom", 0.005, custom=cubic)
        ce = conjugacy_evaluator(f)
        rng = np.random.default_rng(29)  # _stage_conjugacy's stream at seed 0
        rng.random((64, 3))
        y = rng.random((32, 3))
        with pytest.raises(NoConvergence, match="row 0 fails its series check"):
            ce.apply_inverse(ce.apply(y))

    def test_conjugated_rows_do_not_depend_on_their_batch(self, conjugated05):
        """G^-1, F, u, H^-1 and the orbit walks give a row the same bits in any
        sub-batch of two or more rows."""
        ce = conjugacy_evaluator(conjugated05)
        rng = np.random.default_rng(2)
        x = rng.random((96, 2))
        calls = (conjugated05._chart_inverse, conjugated05.evaluate, ce.h_displacement, ce.apply_inverse)
        full = [fn(x) for fn in calls]
        for _ in range(30):
            idx = rng.choice(96, int(rng.integers(2, 96)), replace=False)
            for fn, whole in zip(calls, full):
                assert np.array_equal(fn(x[idx]), whole[idx]), fn.__name__
        # the orbit walks, each output with its rows on axis 0
        f = conjugated05
        shifts = np.random.default_rng(3).integers(0, 2, (6, 96, 2)).astype(float)
        offsets = f.wrapped_walk(x, 4, inverse=False)[1]
        walks = {
            "orbit_displacements": lambda i: [np.swapaxes(f.orbit_displacements(x[i], 6), 0, 1)],
            "preimage_displacements": lambda i: [np.swapaxes(f.preimage_displacements(x[i], 6), 0, 1)],
            "iterate_with_jacobian": lambda i: list(f.iterate_with_jacobian(x[i], 3)),
            "branch_jacobians": lambda i: [np.swapaxes(f.branch_jacobians(x[i], shifts[:, i], 1e-11), 0, 1)],
            "wrapped_walk": lambda i: [w if w.ndim == 2 else np.swapaxes(w, 0, 1)
                                       for inverse in (False, True)
                                       for w in f.wrapped_walk(x[i], 4, inverse)],
            "shifted_walk": lambda i: [f.shifted_walk(x[i], offsets[::-1, i], inverse=True)],
        }
        everything = np.arange(96)
        full = {name: walk(everything) for name, walk in walks.items()}
        for _ in range(10):
            idx = rng.choice(96, int(rng.integers(2, 96)), replace=False)
            for name, walk in walks.items():
                for got, whole in zip(walk(idx), full[name]):
                    assert np.array_equal(got, whole[idx]), name

    @pytest.mark.parametrize("fixture", ["shear05", "product05", "conjugated05"])
    def test_stage_roundtrip_needs_no_fallback(self, fixture, request):
        """The conjugacy stage's 32-point round trip at seed 0 converges by Anderson
        alone: apply_inverse has no fallback and raises NoConvergence if it stalls."""
        f = request.getfixturevalue(fixture)
        ce = conjugacy_evaluator(f)
        rng = np.random.default_rng(29)  # _stage_conjugacy's stream at seed 0
        rng.random((64, f.dim))
        y = rng.random((32, f.dim))
        hy = ce.apply(y)
        tol = 1e-10
        x = ce.apply_inverse(hy, tol=tol)
        assert np.linalg.norm(x + ce.h_displacement(x) - hy, axis=1).max() <= tol
        assert np.abs(x - y).max() <= 1e-8

    def test_sampled_u_within_sup_bound(self, shear05, rng):
        ce = conjugacy_evaluator(shear05)
        x = rng.random((200, 2))
        assert np.linalg.norm(ce.h_displacement(x), axis=1).max() <= ce.sup_bound

    @pytest.mark.parametrize("name", ["shear05", "cubic_shear"])
    def test_weights_on_demand_match_the_full_scan(self, name, request):
        """Only a power-norm tail scans _MAX_SERIES_DEPTH + 60 weights; a closed-form
        tail builds `depth` of them by the same recursion. Weights, depth and tail
        equal those the full scan gives, bit for bit."""
        if name == "cubic_shear":
            cubic = {"matrix": ((0, 0, -2), (1, 0, 1), (0, 1, 6)), "terms": {2: [((1, 0, 0), 0.0, 1.0)]}}
            f = fixture_catalog("custom", 0.02, custom=cubic)
        else:
            f = request.getfixturevalue(name)
        ce = conjugacy_evaluator(f)
        w_u, w_s = _series_weights(f.model, _MAX_SERIES_DEPTH + 60)
        depth = ce.series_depth
        assert np.array_equal(ce.weights_unstable, w_u[:depth])
        assert np.array_equal(ce.weights_stable, w_s[:depth])
        sup = displacement_field(f).sup_norm
        rate = max(f.model.stable_norm, 1.0 / f.model.unstable_conorm)
        if name == "cubic_shear":
            assert rate >= 1.0 and ce.tail_method == "power_norms"
            n_u = np.linalg.norm(w_u, ord=2, axis=(1, 2))
            n_s = np.linalg.norm(w_s, ord=2, axis=(1, 2))
            # a norm sequence that underflows to zero has no remainder
            ratio = max(v[-1] / v[-2] if v[-2] > 0.0 else 0.0 for v in (n_s, n_u))
            remainder = (n_u[-1] + n_s[-1]) * ratio / (1.0 - ratio)
            suffix = np.cumsum((n_u + n_s)[::-1])[::-1]
            tails = [sup * (float(suffix[n]) + remainder) for n in range(_MAX_SERIES_DEPTH + 1)]
        else:
            assert ce.tail_method == "closed_form"
            tails = [sup * rate**n / (1.0 - rate) for n in range(_MAX_SERIES_DEPTH + 1)]
        assert depth == next(n for n in range(1, _MAX_SERIES_DEPTH + 1) if tails[n] <= 1e-9)
        assert ce.tail_bound == tails[depth]

    def test_depth_selection(self, shear05):
        loose = conjugacy_evaluator(shear05, residual_target=1e-6)
        tight = conjugacy_evaluator(shear05, residual_target=1e-12)
        assert loose.series_depth < tight.series_depth
        assert loose.tail_bound <= 1e-6
        assert tight.tail_bound <= 1e-12
        pinned = conjugacy_evaluator(shear05, depth=9)
        assert pinned.series_depth == 9
        with pytest.raises(ValueError):
            conjugacy_evaluator(shear05, depth=0)

    def test_displacement_field_bounds(self, shear05, linear_map):
        disp = displacement_field(shear05)
        assert disp.sup_norm == pytest.approx(0.05, abs=1e-15)
        assert disp.grid_sup <= disp.sup_norm
        assert displacement_field(linear_map).sup_norm == 0.0


class TestSpecialness:
    def test_conjugated_is_special(self, conjugated05):
        ce = conjugacy_evaluator(conjugated05)
        rep = specialness_defect(ce, samples=30, seed=5)
        assert rep.special
        assert rep.max_defect <= 1e-4 * rep.u_sup_measured
        assert len(rep.rows) == 30 * 2

    def test_shear_is_not_special(self, shear05):
        ce = conjugacy_evaluator(shear05)
        rep = specialness_defect(ce, samples=30, seed=5)
        assert not rep.special
        assert rep.max_defect > 0.5 * rep.u_sup_measured

    def test_defect_lives_in_stable_direction(self, shear05):
        """The forward half of the series is exactly periodic, so translation
        defects can only come from the backward (stable) half."""
        ce = conjugacy_evaluator(shear05)
        rep = specialness_defect(ce, samples=30, seed=5)
        assert rep.max_unstable_component < 1e-12
        assert rep.max_stable_component == pytest.approx(rep.max_defect, rel=1e-9)


class TestDeepDecay:
    def test_decay_matches_stable_rate(self, shear05):
        ce = conjugacy_evaluator(shear05)
        table = deep_translation_decay(ce, m_max=6, samples=12, seed=2)
        target = table.stable_log_norm
        assert target == pytest.approx(np.log(2.0 - np.sqrt(2.0)), abs=1e-12)
        assert abs(table.fitted_rate - target) / abs(target) < 0.15

    def test_decay_rows(self, shear05):
        ce = conjugacy_evaluator(shear05)
        table = deep_translation_decay(ce, m_max=5, samples=10, seed=2)
        assert [r[0] for r in table.rows] == list(range(6))
        for m, vec, d_m, d_inv in table.rows:
            # n_m belongs to A^m Z^d: solving A^m w = n_m gives integers
            a_m = IntMatrix(int_pow(shear05.model.matrix.entries, m)).array
            w = np.linalg.solve(a_m, np.array(vec, dtype=float))
            assert np.abs(w - np.round(w)).max() < 1e-9
            assert d_m >= 0.0 and d_inv >= 0.0
        assert table.rows[5][2] < 0.5 * table.rows[0][2]

    def test_product_inverse_converges_at_seed_six(self, product05):
        """The conjugacy stage at --seed 6 samples this decay; its H^-1 once stalled."""
        ce = conjugacy_evaluator(product05)
        table = deep_translation_decay(ce, m_max=6, samples=12, seed=6 + 31)
        assert max(r[3] for r in table.rows) <= 1e-8

    def test_csv_header(self, shear02):
        ce = conjugacy_evaluator(shear02)
        table = deep_translation_decay(ce, m_max=2, samples=4, seed=0)
        rows = table.csv_rows()
        assert rows[0] == ["m", "n_m", "D_m", "D_m_inverse", "fitted_rate"]
        assert len(rows) == 4
