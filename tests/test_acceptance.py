"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single verdict line (visible with `pytest -s` or on
failure) carrying the measured numbers, then asserts. Tolerances here are
contractual; loosen nothing without a matching note in the release notes.
"""

import numpy as np
import pytest

from anosovlab.bundles import integrability_verdict
from anosovlab.cli import main
from anosovlab.conjugacy import (
    conjugacy_evaluator,
    deep_translation_decay,
    specialness_defect,
)
from anosovlab.errors import ObstructionNonzero
from anosovlab.leafmetric import (
    affine_distance,
    conjugacy_leaf_isometry_check,
    holonomy_isometry_check,
    livschitz_solve,
    pull_back_leaves,
)
from anosovlab.linear import IntMatrix, analyze_matrix, covering_radius_table
from anosovlab.orbits import enumerate_orbits, rigidity_report
from anosovlab.scenarios import Scenario, dichotomy_sweep, run_scenario
from leafchecks import map_polyline

A0 = ((3, 1), (1, 1))
MU_S = 2.0 - np.sqrt(2.0)
LOG_MU_S = float(np.log(MU_S))


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def ce_shear05(shear05):
    return conjugacy_evaluator(shear05, 1e-9, None)


def test_01_linear_oracle_suite(linear_map):
    model = analyze_matrix(A0)
    eig_err = abs(model.stable_eigenvalues[0] - MU_S)
    inv = enumerate_orbits(linear_map, 2)
    ok = (
        model.char_poly == (2, -4, 1)
        and model.irreducible
        and eig_err <= 1e-12
        and inv.found_counts == {1: 1, 2: 7}
        and inv.expected_counts == inv.found_counts
    )
    _verdict(
        1, "linear oracle suite", ok,
        f"char poly {model.char_poly}, eigenvalue off by {eig_err:.2e}, "
        f"periodic points {inv.found_counts}",
    )


def test_02_conjugacy_contract(linear_map, shear02):
    ce = conjugacy_evaluator(shear02, 1e-9, None)
    rng = np.random.default_rng(12)
    x = rng.random((128, 2)) * 2.0 - 0.5
    residual = float(np.abs(ce.apply(x) @ ce.model.array.T - ce.apply(shear02.evaluate(x))).max())
    y = rng.random((64, 2))
    roundtrip = float(np.abs(ce.apply_inverse(ce.apply(y)) - y).max())
    ce_lin = conjugacy_evaluator(linear_map, 1e-9, None)
    identity = bool(np.array_equal(ce_lin.apply(y), y))
    ok = residual <= 1e-6 and roundtrip <= 1e-8 and identity
    _verdict(
        2, "conjugacy contract", ok,
        f"residual {residual:.2e}, roundtrip {roundtrip:.2e}, "
        f"linear H is identity: {identity}, depth {ce.series_depth}",
    )


def test_03_translation_defect_decay(ce_shear05):
    rep = specialness_defect(ce_shear05, samples=40, seed=3, threshold=1e-4)
    decay = deep_translation_decay(ce_shear05, 4)
    slope_err = abs(decay.fitted_rate - LOG_MU_S) / abs(LOG_MU_S)
    ok = rep.max_unstable_component <= 1e-6 and slope_err <= 0.15
    _verdict(
        3, "translation-defect decay", ok,
        f"unstable component {rep.max_unstable_component:.2e}, "
        f"decay slope {decay.fitted_rate:.4f} vs {LOG_MU_S:.4f} ({slope_err:.1%} off)",
    )


def test_04_preimage_covering_law():
    table = covering_radius_table(IntMatrix(A0), 8)
    radii = [row["radius"] for row in table]
    law = all(row["radius"] <= row["bound"] * (1 + 1e-9) for row in table[1:])
    ratios = [radii[k + 2] / radii[k] for k in range(len(radii) - 2)]
    window = all(0.4 <= r <= 0.65 for r in ratios)
    ok = law and window
    _verdict(
        4, "preimage covering law", ok,
        f"r_k <= C 2^(-k/2) for k=1..8: {law}, "
        f"two-step ratios in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )


def test_05_integrability_rigidity_dichotomy(conjugated05, shear05, ce_shear05):
    ce_c = conjugacy_evaluator(conjugated05, 1e-9, None)
    spec_c = specialness_defect(ce_c, samples=30, seed=5, threshold=1e-4)
    branch_c = integrability_verdict(conjugated05, samples=12, codes_per_point=6, depth=12, tol=1e-3, seed=5)
    rig_c = rigidity_report(conjugated05, enumerate_orbits(conjugated05, 6), threshold=5e-4)
    positive = (
        spec_c.max_defect <= 1e-6
        and branch_c.max_spread <= 1e-3
        and rig_c.inventory.complete
        and rig_c.max_deviation <= 5e-4
    )

    spec_s = specialness_defect(ce_shear05, samples=30, seed=5, threshold=1e-4)
    branch_s = integrability_verdict(shear05, samples=12, codes_per_point=6, depth=12, tol=1e-3, seed=5)
    rig_s = rigidity_report(shear05, enumerate_orbits(shear05, 3), threshold=5e-4)
    negative = (
        spec_s.max_defect > 1e-6
        and branch_s.max_spread > 1e-3
        and rig_s.max_deviation > 5e-4
    )

    base = Scenario(fixture="shear_A0", points=16, codes_per_point=6, max_period=3)
    sweep = dichotomy_sweep("shear_A0", [0.0, 0.01, 0.02, 0.05], base)
    agree = sweep.irreducible and sweep.all_agree

    ok = positive and negative and agree
    _verdict(
        5, "integrability/rigidity dichotomy", ok,
        f"conjugated: defect {spec_c.max_defect:.2e}, spread {branch_c.max_spread:.2e} rad, "
        f"deviation {rig_c.max_deviation:.2e} over {len(rig_c.inventory)} orbits to period 6; "
        f"shear: defect {spec_s.max_defect:.2e}, spread {branch_s.max_spread:.2e}, "
        f"deviation {rig_s.max_deviation:.2e}; sweep rows agree: {agree}",
    )


def test_06_reducible_counterexample(product05):
    ce = conjugacy_evaluator(product05, 1e-9, None)
    spec = specialness_defect(ce, samples=20, seed=6, threshold=1e-4)
    branch = integrability_verdict(product05, samples=10, codes_per_point=4, depth=12, tol=1e-3, seed=6)
    rig = rigidity_report(product05, enumerate_orbits(product05, 4), threshold=5e-4)
    ok = (
        spec.special
        and branch.integrable
        and rig.inventory.complete
        and rig.max_spread > 5e-4
    )
    _verdict(
        6, "reducible counterexample", ok,
        f"special: {spec.special} (defect {spec.max_defect:.2e}), "
        f"integrable: {branch.integrable} (spread {branch.max_spread:.2e}), "
        f"exponent spread {rig.max_spread:.2e} over {len(rig.inventory)} orbits to period 4",
    )


def test_07_cocycle_solver_suite(shear05, conjugated_psi):
    def psi_true(pts):
        return 0.3 * np.cos(2 * np.pi * (pts[:, 0] + pts[:, 1])) - 0.2 * np.sin(
            2 * np.pi * pts[:, 0]
        )

    def phi(pts):
        return -0.4 + psi_true(shear05.torus_step(pts)) - psi_true(pts)

    inventory = enumerate_orbits(shear05, 3)
    sol = livschitz_solve(shear05, phi, inventory, fourier_order=16, obstruction_tol=1e-4, seed=1)
    grid = np.random.default_rng(2).random((400, 2))
    got = sol.transfer(grid)
    want = psi_true(grid)
    recovery = float(np.abs((got - got.mean()) - (want - want.mean())).max())

    with pytest.raises(ObstructionNonzero) as exc_info:
        livschitz_solve(shear05, lambda p: np.cos(2 * np.pi * p[:, 0]),
                        inventory, fourier_order=8, obstruction_tol=1e-4, seed=1)
    flagged = exc_info.value.solution.obstruction > 1e-4

    lam_err = abs(conjugated_psi.mean - LOG_MU_S)
    ok = (
        recovery <= 1e-3
        and abs(sol.mean + 0.4) <= 1e-3
        and flagged
        and conjugated_psi.residual <= 2e-3
        and lam_err <= 1e-4
    )
    _verdict(
        7, "cocycle solver suite", ok,
        f"manufactured recovery {recovery:.2e}, mean {sol.mean:.5f} vs -0.4, "
        f"obstruction flagged: {flagged}, rigid-fixture residual "
        f"{conjugated_psi.residual:.2e}, exponent off by {lam_err:.2e}",
    )


def test_08_affine_leaf_metric(conjugated05, conjugated_psi):
    starts = np.random.default_rng(11).random((25, 2))
    leaves = pull_back_leaves(conjugated05, starts, L=0.2, depth=12)
    k_bound = float(np.exp(conjugated_psi.sup_transfer))
    offsets = [(-0.12, -0.04), (-0.04, 0.04), (0.04, 0.12), (-0.08, 0.08)]  # arclength
    worst_ratio = 0.0
    k_ok = True
    count = 0
    for leaf in leaves:
        c = leaf.arclength[leaf.center_index]
        image = map_polyline(conjugated05, leaf)
        for da, db in offsets:
            a, b = leaf.node_near_arc(c + da), leaf.node_near_arc(c + db)
            d_src = affine_distance(leaf, a, b, conjugated_psi)
            d_img = affine_distance(image, a, b, conjugated_psi)
            worst_ratio = max(worst_ratio, abs(d_img / (MU_S * d_src) - 1.0))
            plain = affine_distance(leaf, a, b, None)
            k_ok = k_ok and plain / k_bound <= d_src <= plain * k_bound
            count += 1
    assert count == 100

    scan = integrability_verdict(conjugated05, samples=10, codes_per_point=4, depth=10, tol=1e-3, seed=0)
    hol = holonomy_isometry_check(conjugated05, scan, conjugated_psi, samples=8, seed=23, depth=12)
    ok = worst_ratio <= 1e-3 and k_ok and hol.max_relative_defect <= 1e-3
    _verdict(
        8, "affine leaf metric", ok,
        f"contraction ratio off by {worst_ratio:.2e} over {count} leaf pairs, "
        f"K-equivalence (K={k_bound:.3f}): {k_ok}, "
        f"holonomy isometry defect {hol.max_relative_defect:.2e}",
    )


def test_09_conjugacy_leaf_isometry(conjugated05, conjugated_psi):
    ce = conjugacy_evaluator(conjugated05, 1e-9, None)
    rep = conjugacy_leaf_isometry_check(conjugated05, ce, conjugated_psi, samples=100, seed=2, depth=12)
    ok = rep.status == "ok" and rep.pairs == 100 and rep.max_relative_deviation <= 1e-3
    _verdict(
        9, "conjugacy leaf isometry", ok,
        f"scale {rep.scale:.6f}, deviation {rep.max_relative_deviation:.2e} "
        f"over {rep.pairs} pairs",
    )


def test_10_deterministic_outputs(tmp_path, monkeypatch):
    def outputs(d):
        return {
            p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name != "run_meta.txt"
        }

    runs = []
    for name in ("one", "two"):
        sc = Scenario(
            fixture="shear_A0", epsilon=0.05, stages=("conjugacy", "orbits"),
            points=8, pairs=10, codes_per_point=4, max_period=2, seed=0,
            out_dir=str(tmp_path / name),
        )
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / f"cache_{name}"))  # both runs compute
        run_scenario(sc)
        runs.append(outputs(tmp_path / name))
    repeat_same = runs[0] == runs[1]

    sweep = tmp_path / "sweep.yaml"
    sweep.write_text(
        "fixture: {name: shear_A0}\nsampling: {points: 8, codes_per_point: 4}\n"
        "depths: {max_period: 2}\nseed: 0\n"
        "dichotomy: {family: shear_A0, epsilons: [0.0, 0.02]}\n"
    )
    sweeps = []
    for name, threads in (("t1", "1"), ("t3", "3")):
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / f"cache_{name}"))
        argv = ["dichotomy", "--config", str(sweep), "--out", str(tmp_path / name), "--threads", threads]
        assert main(argv) == 0
        sweeps.append((tmp_path / name / "dichotomy.csv").read_bytes())
    thread_same = sweeps[0] == sweeps[1]

    ok = repeat_same and thread_same
    _verdict(
        10, "deterministic outputs", ok,
        f"repeated runs byte-identical: {repeat_same}, "
        f"thread counts 1 vs 3 byte-identical: {thread_same}",
    )
