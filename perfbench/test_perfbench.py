"""Tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest perfbench -q

The traced-run tests start real workers, so the module takes about two
minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

# counts that must repeat exactly between traced runs at one seed
REPEATING = (
    "conjugacy.h_displacement.calls",
    "maps.trig.points",
    "bundles.qr_pos.calls",
    "orbits.enumerate_orbits.calls",
    "conjugacy.inverse_fallback.rows",
)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _main(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return _last_json(capsys.readouterr().out)


def test_sweep_grid_is_generated_from_the_seed():
    a = workloads.sweep_grid(3, 0, 7)
    assert a == workloads.sweep_grid(3, 0, 7)
    assert a != workloads.sweep_grid(4, 0, 7)
    assert a[0] == 0.0 and a[-1] == workloads.SWEEP_MAX_EPS
    assert list(a) == sorted(set(a)) and len(a) == 7


def test_scenario_seeds():
    assert [workloads.scenario_seed("sweep_linear", 3, i) for i in range(3)] == [3000, 3001, 3002]
    assert {workloads.scenario_seed("shear", s, i) for s in (0, 7) for i in range(3)} == {0}


def _shear_summary(special: str) -> str:
    return "\n".join([
        "scenario: shear_A0 epsilon=0.05",
        "[conjugacy]", f"special: {special}",
        "[orbits]", "counts_complete: yes", "rigid: no",
        "[branches]", "integrable: no",
        "[findings]", "conjugacy: not special",
        "", "exit_code: 2", "",
    ])


def test_oracle_flags_a_wrong_verdict(tmp_path):
    call = workloads.plan("shear", 0, run.ROOT, tmp_path)[0]
    (tmp_path / "summary.txt").write_text(_shear_summary("no"))
    assert workloads.check(call, tmp_path, 2) == []
    assert workloads.check(call, tmp_path, 0)  # wrong exit code
    (tmp_path / "summary.txt").write_text(_shear_summary("yes"))
    assert any("conjugacy.special" in p for p in workloads.check(call, tmp_path, 2))


def test_end_to_end_run_prints_every_metric(capsys):
    out = _main(capsys, "--workload", "sweep_linear", "--seconds", "1", "--seed", "5")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert list(out["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_overhead_and_accounts_for_wall_time(capsys):
    out = _main(capsys, "--workload", "sweep_linear", "--seconds", "1", "--trace", "1")
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert out["correct"] and list(m) == [name for name, *_ in run.PER_LAYER]
    assert "trace.overhead_s" in m and m["trace.untraced_wall_s"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in ("cli", "scenarios", "conjugacy", "orbits",
                                                     "bundles", "leafmetric", "maps", "linear", "intlinalg"))
    assert abs(m["trace.wall_s"] - layers) <= 0.01 * m["trace.wall_s"]
    assert m["leafmetric.holonomy_isometry_check.total_s"] > 0


def test_trace_counts_repeat_and_outputs_match_untraced():
    bench = run.Run("shear", 0, seconds=0)
    try:
        base = bench.spawn(0)
        traced = [bench.spawn(0, trace=True) for _ in range(2)]
        for rep in traced:
            bench.check(rep, reference=base)
        assert bench.failed == 0, bench.problems
        counts = [
            {
                name: run._trace_value(rep.result["trace"], {}, key, stat)
                for name, key, stat, _ in run.PER_LAYER
                if name in REPEATING
            }
            for rep in traced
        ]
        assert counts[0] == counts[1]
        assert all(counts[0][name] > 0 for name in REPEATING), counts[0]
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shear", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
