"""Periodic orbit enumeration, exact counts, spectra, rigidity verdicts."""

import numpy as np
import pytest

from anosovlab import linear
from anosovlab.errors import ResourceLimit
from anosovlab.intlinalg import int_pow
from anosovlab.linear import IntMatrix
from anosovlab.orbits import (
    _refine_batch,
    _stable_spectra,
    enumerate_orbits,
    linear_periodic_points,
    rigidity_report,
)
from anosovlab.util import qr_pos, torus_distance, wrap


def _expected_count(model, n: int) -> int:
    """|det(A^n - I)| computed independently from the integer matrix."""
    a_n = IntMatrix(int_pow(model.matrix.entries, n)).array
    return int(round(abs(np.linalg.det(a_n - np.eye(model.dim)))))


class TestLinearEnumeration:
    def test_point_counts(self, linear_map):
        for n, want in [(1, 1), (2, 7), (3, 31), (4, 119)]:
            pts = linear_periodic_points(linear_map.model, n)
            assert pts.shape == (want, 2)
            assert want == _expected_count(linear_map.model, n)
            a_n = IntMatrix(int_pow(linear_map.model.matrix.entries, n)).array
            gap = pts @ a_n.T - pts
            assert np.abs(gap - np.round(gap)).max() < 1e-9

    def test_cubic_counts(self, cubic):
        for n in (1, 2):
            pts = linear_periodic_points(cubic.model, n)
            assert pts.shape[0] == _expected_count(cubic.model, n)
        assert linear_periodic_points(cubic.model, 1).shape[0] == 4

    def test_cap_enforced(self, linear_map, monkeypatch):
        monkeypatch.setattr(linear, "_COSET_CAP", 119)
        assert linear_periodic_points(linear_map.model, 4).shape == (119, 2)
        monkeypatch.setattr(linear, "_COSET_CAP", 118)
        with pytest.raises(ResourceLimit, match="above the cap 118"):
            linear_periodic_points(linear_map.model, 4)
        with pytest.raises(ValueError):
            linear_periodic_points(linear_map.model, 0)

    def test_inventory_complete_with_cycle_counts(self, linear_map):
        inv = enumerate_orbits(linear_map, 4)
        assert inv.complete and not inv.failures
        assert inv.expected_counts == {1: 1, 2: 7, 3: 31, 4: 119}
        # minimal-period points split into cycles: (7-1)/2, (31-1)/3, (119-7)/4
        assert {n: len([o for o in inv if o.period == n]) for n in (1, 2, 3, 4)} == {1: 1, 2: 3, 3: 10, 4: 28}
        assert len(inv) == 42

    def test_linear_spectra_exact(self, linear_map):
        rep = rigidity_report(linear_map, enumerate_orbits(linear_map, 4), 5e-4)
        lam = np.log(2.0 - np.sqrt(2.0))
        assert rep.linear_exponents == pytest.approx((lam,), abs=1e-14)
        assert rep.rigid
        assert rep.max_deviation < 1e-12
        assert rep.max_spread < 1e-12


class TestCycleStructure:
    def test_cycles_are_orbits(self, conjugated05):
        inv = enumerate_orbits(conjugated05, 3)
        assert inv.complete
        for o in inv:
            assert o.points.shape == (o.period, 2)
            step = conjugated05.torus_step(o.points)
            assert torus_distance(step, np.roll(o.points, -1, axis=0)).max() < 1e-9
            assert o.residual <= 1e-11

    def test_minimal_periods(self, conjugated05):
        inv = enumerate_orbits(conjugated05, 3)
        for o in inv:
            for j in range(1, o.period):
                assert torus_distance(o.points[j], o.points[0]) > 1e-6

    @pytest.mark.parametrize("name", ["shear05", "conjugated05", "product05"])
    def test_translation_class(self, name, request):
        f = request.getfixturevalue(name)
        inv = enumerate_orbits(f, 3)
        for o in inv:
            y = o.points[:1]
            for _ in range(o.period):
                y = f.evaluate(y)
            [m] = y - o.points[:1]
            assert np.abs(m - np.round(m)).max() < 1e-9
            assert tuple(int(c) for c in np.round(m)) == o.translation_class

    def test_orbit_ids_sorted(self, conjugated05):
        inv = enumerate_orbits(conjugated05, 3)
        assert [o.orbit_id for o in inv] == list(range(len(inv)))
        periods = [o.period for o in inv]
        assert periods == sorted(periods)

    def test_refine_orbit_finds_continued_fixed_point(self, shear05):
        [fixed] = [o for o in enumerate_orbits(shear05, 1) if o.period == 1]
        seed = fixed.points[0] + np.array([0.012, -0.008])
        pts, res, ok = _refine_batch(shear05, seed[None, :], 1, 1e-12)
        assert ok[0] and res[0] <= 1e-12
        assert torus_distance(pts[0], fixed.points[0]) < 1e-10


def _qr_exponents(f, cycles, passes=20):
    """Reference stable exponents: a QR chain run `passes` times around each
    closed product, its last pass read. It is backward stable step by step, so
    it does not lose the small eigenvalue to the large one."""
    k, n, d = cycles.shape
    jacs = f.jacobian(cycles.reshape(-1, d)).reshape(k, n, d, d)
    q = np.broadcast_to(np.eye(d), (k, d, d)).copy()
    for _ in range(passes):
        logs = np.zeros((k, d))
        for step in range(n):
            q, r = qr_pos(jacs[:, step] @ q)
            logs += np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
    return np.sort(logs / n, axis=1)[:, : f.model.stable_dim]


class TestCycleSpectra:
    """Exponents from eig(DF^n) at the largest period the point cap admits."""

    @pytest.mark.parametrize("name, n", [("shear05", 9), ("product05", 7)])
    def test_largest_period_against_a_qr_chain(self, name, n, request):
        """Products along n steps from the linear model's period-n points, read both ways:
        about 1.6e-10 apart, against a rigidity threshold of 5e-4."""
        f = request.getfixturevalue(name)
        with pytest.raises(ResourceLimit):
            linear_periodic_points(f.model, n + 1)
        seeds = linear_periodic_points(f.model, n)[::997]
        cycles = np.swapaxes(f.orbit_points(seeds, n), 0, 1)
        assert np.abs(_stable_spectra(f, cycles) - _qr_exponents(f, cycles)).max() < 1e-9

    def test_linear_cycles_at_period_nine(self, linear_map):
        cycles = np.swapaxes(linear_map.orbit_points(linear_periodic_points(linear_map.model, 9)[::997], 9), 0, 1)
        assert np.abs(_stable_spectra(linear_map, cycles) - np.log(2.0 - np.sqrt(2.0))).max() < 1e-10


class TestRigidity:
    def test_conjugated_is_rigid(self, conjugated05):
        rep = rigidity_report(conjugated05, enumerate_orbits(conjugated05, 3), 5e-4)
        assert rep.rigid
        assert rep.max_deviation < 1e-10
        assert rep.max_spread < 1e-10
        assert rep.inventory.complete and len(rep.inventory) == 14

    def test_shear_is_not_rigid(self, shear05):
        rep = rigidity_report(shear05, enumerate_orbits(shear05, 2), 5e-4)
        assert not rep.rigid
        assert rep.max_deviation > 0.05
        assert rep.max_spread > 0.05

    def test_spectrum_cross_check(self, conjugated05):
        inv = enumerate_orbits(conjugated05, 2)
        lam = np.log(2.0 - np.sqrt(2.0))
        for o in inv:
            assert len(o.stable_exponents) == 1
            assert o.stable_exponents[0] == pytest.approx(lam, abs=1e-10)

    def test_product_counts_and_verdict(self, product05):
        rep = rigidity_report(product05, enumerate_orbits(product05, 3), 5e-4)
        assert rep.inventory.complete
        assert rep.inventory.expected_counts == {1: 1, 2: 15, 3: 112}
        assert len(rep.inventory) == 45
        assert not rep.rigid  # the shear term makes periodic stable rates drift apart

    def test_csv_rows(self, linear_map):
        rep = rigidity_report(linear_map, enumerate_orbits(linear_map, 2), 5e-4)
        rows = rep.csv_rows()
        assert rows[0] == [
            "period", "orbit_id", "point0_x", "point0_y",
            "m_class", "lambda_s_1", "deviation", "spread",
        ]
        assert len(rows) == 1 + len(rep.inventory)
