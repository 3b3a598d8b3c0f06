"""Workloads and the verdict oracle.

Every workload is a list of calls to the public `anosovlab` command, run once
against an empty cache (the cold pass) and once more against the cache that
the cold pass filled (the warm pass). The benchmark seed becomes the scenario
seed through `--seed`; the sweep grids are generated from it.

Why these workloads:

- `shear`: `anosovlab all` on configs/shear.yaml, the non-special map. The
  cold pass spends most of its time in `ConjugacyEvaluator.apply_inverse`
  (its scipy fallback included) and in the metric stage's cocycle solve; the
  warm pass is served the conjugacy and orbit artefacts from the cache, so
  only the uncached stages remain. How long `apply_inverse` takes depends on
  the sampled points: over scenario seeds its `H` evaluations range from
  about 170 to 510 and the cold pass from about 6 to 15 s. A run has time for
  only four repetitions, too few to average that out, so every repetition
  uses the config's own scenario seed 0 (384 `H` evaluations, one fallback
  row) and the workload's inputs do not depend on the benchmark seed.
- `sweep_linear`: `anosovlab dichotomy` over dense seeded epsilon grids in
  [0, 0.05] for shear_A0, conjugated_A0 and the d=3 product_T3, then
  `anosovlab all` on configs/linear.yaml. Every sweep row builds a new map,
  so the conjugacy series, branch walks and orbit continuation do the work,
  in two and in three dimensions. The linear model is rigid, every verdict
  passes, and it is the only input that traces leaves and runs the holonomy
  and leaf-isometry checks. The two share a workload because each is short.

The full conjugated and product_T3 pipelines are not workloads: one run of
either takes 40-55 s on a 2-core machine, mostly fixed-size work in the metric
stage, which does not fit the benchmark's time budget with repeats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

ISOMETRY_TOL = 1e-3  # README gate 8 and 9
EXPONENT_TOL = 1e-4  # README gate 7: cocycle mean against the linear exponent
SWEEP_MAX_EPS = 0.05


@dataclass(frozen=True)
class Call:
    """One invocation of the `anosovlab` command."""

    verb: str
    config: str  # relative to the repository root, or absolute for generated files
    out: str  # output sub-directory name
    family: str | None = None  # dichotomy family, for the oracle
    grid: tuple[float, ...] = ()  # dichotomy epsilons, for the oracle


def sweep_grid(seed: int, family_index: int, n: int) -> tuple[float, ...]:
    """0, the far end, and one jittered point in each of the first n-2 of n-1 equal cells."""
    rng = np.random.default_rng([seed, family_index])
    cell = SWEEP_MAX_EPS / (n - 1)
    inner = [round((k + rng.uniform(0.2, 0.8)) * cell, 6) for k in range(n - 2)]
    return (0.0, *inner, SWEEP_MAX_EPS)


# family, shipped config supplying tolerances and sampling, grid size
_SWEEPS = (
    ("shear_A0", "configs/shear.yaml", 7),
    ("conjugated_A0", "configs/conjugated.yaml", 5),
    ("product_T3", "configs/product_t3.yaml", 3),
)


def plan(workload: str, seed: int, root: Path, work: Path) -> list[Call]:
    """Calls for one workload; generated configs are written under `work`."""
    if workload == "shear":
        return [Call("all", "configs/shear.yaml", "shear")]
    if workload != "sweep_linear":
        raise KeyError(workload)
    calls = []
    for index, (family, config, n) in enumerate(_SWEEPS):
        grid = sweep_grid(seed, index, n)
        cfg = yaml.safe_load((root / config).read_text())
        cfg["dichotomy"] = {"family": family, "epsilons": list(grid)}
        path = work / f"sweep_{family}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        calls.append(Call("dichotomy", str(path), family, family, grid))
    return calls + [Call("all", "configs/linear.yaml", "linear")]


WORKLOADS = ("shear", "sweep_linear")


def scenario_seed(workload: str, seed: int, index: int) -> int:
    """Scenario seed of repetition `index` of a run at benchmark seed `seed`.

    sweep_linear: 1000 * seed + index, which also seeds the sweep grids, so
    the mean over repetitions averages over inputs as well as over machine
    noise. shear: always 0, for the reason given above.
    """
    if workload == "shear":
        return 0
    return 1000 * seed + index


# -- oracle ---------------------------------------------------------------------


def read_summary(path: Path) -> dict[str, dict[str, str]]:
    """summary.txt as {section: {key: value}}; the trailing exit code under ''."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for line in path.read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif line.startswith("exit_code: "):
            sections[""]["exit_code"] = line.split(": ", 1)[1]
        elif ": " in line:
            key, value = line.split(": ", 1)
            sections[current].setdefault(key, value)
    return sections


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_all(call: Call, s: dict, problems: list) -> None:
    _expect(problems, "orbits.counts_complete", s["orbits"].get("counts_complete"), "yes")
    if call.out == "shear":
        # gate 5: all three diagnostics fail on a genuine shear
        for sec, key in (("conjugacy", "special"), ("branches", "integrable"), ("orbits", "rigid")):
            _expect(problems, f"{sec}.{key}", s[sec].get(key), "no")
        return
    for sec, key in (
        ("certify", "certified"),
        ("conjugacy", "special"),
        ("branches", "integrable"),
        ("orbits", "rigid"),
    ):
        _expect(problems, f"{sec}.{key}", s[sec].get(key), "yes")
    m = s["metric"]
    _expect(problems, "metric.isometry_status", m.get("isometry_status"), "ok")
    _expect(problems, "metric.holonomy_status", m.get("holonomy_status"), "ok")
    if problems:
        return
    for key in ("isometry_max_deviation", "holonomy_max_defect"):
        if not float(m[key]) <= ISOMETRY_TOL:
            problems.append(f"metric.{key} = {m[key]} > {ISOMETRY_TOL}")
    gap = abs(float(m["cocycle_mean"]) - float(m["linear_exponent"]))
    if not gap <= EXPONENT_TOL:
        problems.append(f"cocycle mean is {gap:.3e} from the linear exponent (> {EXPONENT_TOL})")


def _check_dichotomy(call: Call, out: Path, s: dict, problems: list) -> None:
    d = s["dichotomy"]
    _expect(problems, "dichotomy.family", d.get("family"), call.family)
    with open(out / "dichotomy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    eps = tuple(float(r["epsilon"]) for r in rows)
    if len(eps) != len(call.grid) or any(abs(a - b) > 1e-12 for a, b in zip(eps, call.grid)):
        problems.append(f"dichotomy rows {eps} do not match the grid {call.grid}")
        return
    if call.family == "product_T3":
        # gate 6: special and integrable yet non-rigid once perturbed
        _expect(problems, "dichotomy.irreducible", d.get("irreducible"), "no")
        for r in rows:
            want_rigid = "yes" if float(r["epsilon"]) == 0.0 else "no"
            got = (r["special"], r["integrable"], r["rigid"])
            _expect(problems, f"row eps={r['epsilon']}", got, ("yes", "yes", want_rigid))
        return
    # gate 5: the verdicts agree on every row and vanish together
    _expect(problems, "dichotomy.all_agree", d.get("all_agree"), "yes")
    _expect(problems, "dichotomy.co_vanishing", d.get("co_vanishing"), "yes")
    for r in rows:
        e = float(r["epsilon"])
        if call.family == "conjugated_A0" or e == 0.0:
            want = ("yes",) * 3
        elif e == SWEEP_MAX_EPS:
            want = ("no",) * 3
        else:
            continue  # small shears: agreement is checked above
        _expect(problems, f"row eps={r['epsilon']}", (r["special"], r["integrable"], r["rigid"]), want)


def check(call: Call, out: Path, exit_code: int | None) -> list[str]:
    """Problems with one call's outputs; empty when the verdicts match."""
    want_exit = 2 if call.out == "shear" else 0
    problems: list[str] = []
    _expect(problems, "exit code", exit_code, want_exit)
    summary = out / "summary.txt"
    if not summary.exists():
        return problems + ["summary.txt missing"]
    s = read_summary(summary)
    _expect(problems, "summary exit_code", s[""].get("exit_code"), str(want_exit))
    try:
        if call.verb == "dichotomy":
            _check_dichotomy(call, out, s, problems)
        else:
            _check_all(call, s, problems)
    except (KeyError, ValueError, OSError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def output_files(out: Path) -> dict[str, bytes]:
    """Deterministic outputs of a call: every file but run_meta.txt."""
    if not out.is_dir():
        return {}
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "run_meta.txt"
    }
