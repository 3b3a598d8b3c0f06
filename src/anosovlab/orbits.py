"""Periodic orbits: exact linear enumeration, continuation, stable spectra.

Periodic points of the linear model solve (A^n - I) x in Z^d and are
enumerated exactly through the integer coset machinery, |det(A^n - I)| of
them per period. Perturbed fixtures inherit these points by Newton
continuation in the perturbation scale; hyperbolicity keeps DF^n - I
invertible along the way, so counts are preserved.

Each period is then read from one batched walk: `orbit_points` walks every
converged point once, and the cycles, minimal periods and 8-decimal dedup
keys all come from that one (n, rows, d) array. The new orbits of the period
share one lift walk for their translation classes, and each takes its stable
exponents from the eigenvalues of its cycle product DF^n.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from anosovlab.errors import NoConvergence, ResourceLimit, SingularJacobian
from anosovlab.intlinalg import identity, int_add, int_pow, int_scale
from anosovlab.linear import IntMatrix, LinearModel, coset_representatives
from anosovlab.maps import TorusMap
from anosovlab.util import float_cell, torus_distance, wrap

_DEDUP_DECIMALS = 8
_NEWTON_TOL = 1e-12  # sup residual of F^n(x) - x - m at an accepted periodic point
_CONTINUATION_STEP = 0.01  # epsilon step of the first continuation attempt
_REFINE_MAX_ITER = 40  # Newton steps per continuation stage
_PERIOD_TOL = 1e-8  # torus distance at which a cycle point counts as back at its start


@dataclass(frozen=True)
class PeriodicOrbit:
    """One cycle of minimal period `period`, points in deterministic cycle order."""

    points: np.ndarray
    period: int
    translation_class: tuple[int, ...]
    stable_exponents: tuple[float, ...]
    residual: float
    orbit_id: int = -1


def _power_minus_identity(matrix: IntMatrix, n: int) -> IntMatrix:
    rows = int_add(int_pow(matrix.entries, n), int_scale(identity(matrix.dim), -1))
    return IntMatrix(rows)


def linear_periodic_points(model: LinearModel, n: int, cap: int = 200_000) -> np.ndarray:
    """All torus points with A^n x = x mod Z^d, exactly |det(A^n - I)| of them."""
    if n < 1:
        raise ValueError("period must be >= 1")
    b = _power_minus_identity(model.matrix, n)
    if abs(b.det) > cap:
        raise ResourceLimit(f"period {n} has {abs(b.det)} linear periodic points, cap {cap}")
    reps = np.array(coset_representatives(b, cap=cap).representatives, dtype=float)
    return wrap(np.linalg.solve(b.array, reps.T).T)


def _refine_batch(
    f: TorusMap, seeds: np.ndarray, n: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton on F^n(x) - x - m with m frozen from the seeds; returns (points, residuals, ok).

    One chain per position of x: the chain that fixes m serves the first pass,
    and the last one computed serves the final residual."""
    x = seeds.copy()
    y, acc = f.iterate_with_jacobian(x, n)
    m = np.round(y - x)
    eye = np.eye(f.dim)
    ok = np.ones(x.shape[0], dtype=bool)
    for _ in range(_REFINE_MAX_ITER):
        g = y - x - m
        res = np.abs(g).max(axis=1)
        active = ok & (res > tol)
        if not active.any():
            break
        jac = acc[active] - eye
        det = np.linalg.det(jac)
        if np.any(np.abs(det) < 1e-12):
            raise SingularJacobian(
                f"DF^{n} - I nearly singular during refinement (|det| min {np.abs(det).min():.3e})"
            )
        step = np.linalg.solve(jac, g[active][..., None])[..., 0]
        # continuation seeds are close; cap the step to stay in the basin
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        step = np.where(norms > 0.25, step * (0.25 / norms), step)
        x[active] -= step
        y, acc = f.iterate_with_jacobian(x, n)
    res = np.abs(y - x - m).max(axis=1)
    return x, res, res <= tol


def _stable_spectra(f: TorusMap, cycles: np.ndarray) -> np.ndarray:
    """Stable exponents of k cycles of one period, cycles (k, n, d); shape (k, stable_dim).

    The exponents are log|eig(DF^n)| / n of each cycle product, whose small
    eigenvalues carry a relative error of about ulp |lambda_u / lambda_s|^n:
    about 1.6e-10 in the exponent at the largest periods the point cap admits.
    """
    k, n, d = cycles.shape
    jacs = f.jacobian(cycles.reshape(-1, d)).reshape(k, n, d, d)
    prod = np.broadcast_to(np.eye(d), (k, d, d))
    for step in range(n):
        prod = jacs[:, step] @ prod
    exponents = np.sort(np.log(np.abs(np.linalg.eigvals(prod))) / n, axis=1)
    stable = exponents[:, : f.model.stable_dim]
    if stable.max() >= 0:
        worst = exponents[int(stable.max(axis=1).argmax())]
        raise NoConvergence(f"expected {stable.shape[1]} negative exponents, got {worst}")
    return stable


def _minimal_period(cycles: np.ndarray) -> np.ndarray:
    """Minimal period of each row of cycles (n, rows, d): the least divisor j of n
    with point j back within _PERIOD_TOL of point 0."""
    n = cycles.shape[0]
    periods = np.full(cycles.shape[1], n)
    for j in reversed(range(1, n)):
        if n % j == 0:
            periods[torus_distance(cycles[j], cycles[0]) <= _PERIOD_TOL] = j
    return periods


@dataclass(frozen=True)
class OrbitInventory:
    """Orbits of minimal period <= max_period plus completeness bookkeeping."""

    orbits: tuple[PeriodicOrbit, ...]
    expected_counts: dict
    found_counts: dict
    failures: tuple

    @property
    def complete(self) -> bool:
        """Point counts per period match |det(A^n - I)| exactly.

        Individual seed failures are tolerable as long as every cycle was
        still reached through another of its points; `failures` lists them.
        """
        return self.expected_counts == self.found_counts

    def __iter__(self):
        return iter(self.orbits)

    def __len__(self):
        return len(self.orbits)


def _continuation_scales(epsilon: float, step: float) -> list[float]:
    if epsilon == 0.0:
        return [0.0]
    sign = 1.0 if epsilon > 0 else -1.0
    count = int(abs(epsilon) / step + 1e-9)
    scales = [sign * step * k for k in range(1, count + 1)]
    if not scales or abs(scales[-1] - epsilon) > 1e-12:
        scales.append(epsilon)
    return scales


def _continue_rows(
    f: TorusMap, seeds: np.ndarray, n: int, tol: float, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = seeds.copy()
    if not f.is_linear:
        for scale in _continuation_scales(f.epsilon, step):
            stage = dataclasses.replace(f, epsilon=scale)
            stage_tol = tol if scale == f.epsilon else max(tol, 1e-10)
            pts, _, _ = _refine_batch(stage, pts, n, stage_tol)
    return _refine_batch(f, pts, n, tol)


def _collision_rows(pts: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Converged rows sharing a rounded torus point, plus unconverged rows."""
    groups: dict[tuple, list[int]] = {}
    for idx in np.flatnonzero(ok):
        key = tuple(np.round(pts[idx] % 1.0, _DEDUP_DECIMALS) % 1.0)
        groups.setdefault(key, []).append(idx)
    redo = [idx for rows in groups.values() if len(rows) > 1 for idx in rows]
    redo.extend(np.flatnonzero(~ok).tolist())
    return np.array(sorted(set(redo)), dtype=int)


def enumerate_orbits(f: TorusMap, max_period: int) -> OrbitInventory:
    """Continue every linear periodic point to f and group into minimal-period cycles."""
    expected, found, failures = {}, {}, []
    orbit_map: dict[tuple, PeriodicOrbit] = {}
    for n in range(1, max_period + 1):
        expected[n] = abs(_power_minus_identity(f.model.matrix, n).det)
        seeds = linear_periodic_points(f.model, n)
        pts, res, ok = _continue_rows(f, seeds, n, _NEWTON_TOL, _CONTINUATION_STEP)
        # a coarse continuation can hop a seed into a neighbouring basin; the
        # duplicates it produces are redone from scratch with finer steps
        for shrink in (4.0, 16.0, 64.0):
            redo = _collision_rows(pts, ok)
            if not redo.size:
                break
            pts[redo], res[redo], ok[redo] = _continue_rows(
                f, seeds[redo], n, _NEWTON_TOL, _CONTINUATION_STEP / shrink
            )
        for idx in _collision_rows(pts, ok):
            ok[idx] = False
        bad_rows = ~ok
        for idx in np.flatnonzero(bad_rows):
            failures.append((n, tuple(float(c) for c in seeds[idx]), float(res[idx])))
        good = wrap(pts[~bad_rows])
        good_res = res[~bad_rows]
        cycles = f.orbit_points(good, n)
        keys = np.round(cycles % 1.0, _DEDUP_DECIMALS) % 1.0
        periods = _minimal_period(cycles)
        seen = set()
        distinct = 0
        new = {}  # dedup key -> (row, index of the key's point in the row's cycle)
        for row in range(good.shape[0]):
            cycle_keys = [tuple(p) for p in keys[:, row]]
            if cycle_keys[0] in seen:
                continue
            seen.update(cycle_keys)
            distinct += periods[row]
            if periods[row] != n:
                continue  # already collected at its minimal period
            key = min(cycle_keys)
            if key not in orbit_map and key not in new:
                new[key] = (row, cycle_keys.index(key))
        found[n] = int(distinct)
        if new:
            rows, shifts = np.array(list(new.values())).T
            # each new orbit's cycle, rotated to start at its least key
            points = cycles[(np.arange(n)[None, :] + shifts[:, None]) % n, rows[:, None]]
            lift = points[:, 0]
            for _ in range(n):
                lift = f.evaluate(lift)
            classes = np.round(lift - points[:, 0]).astype(int)
            spectra = _stable_spectra(f, points)
            points.setflags(write=False)
            for j, (key, row) in enumerate(zip(new, rows)):
                orbit_map[key] = PeriodicOrbit(
                    points=points[j],
                    period=n,
                    translation_class=tuple(int(c) for c in classes[j]),
                    stable_exponents=tuple(float(v) for v in spectra[j]),
                    residual=float(good_res[row]),
                )
    ordered = sorted(orbit_map.items(), key=lambda kv: (kv[1].period, kv[0]))
    orbits = tuple(
        dataclasses.replace(o, orbit_id=i) for i, (_, o) in enumerate(ordered)
    )
    return OrbitInventory(
        orbits=orbits,
        expected_counts=expected,
        found_counts=found,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class RigidityReport:
    """Per-orbit stable exponents against the linear model's, with both gauges.

    deviation: worst |lambda_i(orbit) - lambda_i(A)| (match with the linear
    spectrum); spread: worst pairwise |lambda_i(p) - lambda_i(q)| between
    orbits (mutual agreement, meaningful even when the linear match fails).
    """

    inventory: OrbitInventory
    linear_exponents: tuple[float, ...]
    per_index_deviation: tuple[float, ...]
    per_index_spread: tuple[float, ...]
    max_deviation: float
    max_spread: float
    threshold: float
    rigid: bool

    def csv_rows(self) -> list[list[str]]:
        k = len(self.linear_exponents)
        d = self.inventory.orbits[0].points.shape[1] if self.inventory.orbits else 0
        head = (
            ["period", "orbit_id"]
            + [f"point0_{c}" for c in "xyz"[:d]]
            + ["m_class"]
            + [f"lambda_s_{i + 1}" for i in range(k)]
            + ["deviation", "spread"]
        )
        rows = [head]
        for o in self.inventory.orbits:
            dev = max(
                abs(o.stable_exponents[i] - self.linear_exponents[i]) for i in range(k)
            )
            rows.append(
                [str(o.period), str(o.orbit_id)]
                + [float_cell(c) for c in o.points[0]]
                + [" ".join(str(c) for c in o.translation_class)]
                + [float_cell(v) for v in o.stable_exponents]
                + [float_cell(dev), float_cell(self.max_spread)]
            )
        return rows


def rigidity_report(f: TorusMap, inventory: OrbitInventory, threshold: float = 5e-4) -> RigidityReport:
    """Stable exponents of the orbits in `inventory` against f's linear model."""
    linear = tuple(float(v) for v in f.model.stable_exponents)
    k = len(linear)
    table = np.array([o.stable_exponents for o in inventory.orbits])
    if table.size == 0:
        dev = spread = tuple(0.0 for _ in range(k))
    else:
        dev = tuple(float(np.abs(table[:, i] - linear[i]).max()) for i in range(k))
        spread = tuple(float(table[:, i].max() - table[:, i].min()) for i in range(k))
    max_dev = max(dev) if dev else 0.0
    return RigidityReport(
        inventory=inventory,
        linear_exponents=linear,
        per_index_deviation=dev,
        per_index_spread=spread,
        max_deviation=max_dev,
        max_spread=max(spread) if spread else 0.0,
        threshold=threshold,
        rigid=max_dev <= threshold,
    )
