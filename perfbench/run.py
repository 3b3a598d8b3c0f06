"""anosovlab benchmark: end-to-end runs, a verdict oracle and traced layer times.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; it reads src/ and configs/ next to this
directory and writes only under .perfbench/. Each repetition is a fresh
interpreter (perfbench/worker.py) with its own empty ANOSOVLAB_CACHE, driving
the `anosovlab` command in a closed loop with one client, `--threads 1` and
one BLAS thread. Repetitions run one at a time until the next one would end
after --seconds; workloads.scenario_seed gives each its scenario seed.

With --trace 0 the metrics are the end-to-end ones: set-up time and peak RSS
are medians over the run's set-ups and repetitions, and the cold and warm pass
times are means over its repetitions. A run has room for only 3 to 6
repetitions, and on a shared 2-core machine the time of one repetition
scatters by about 13% with no heavy tail, so the mean of a run is about 1.6
times steadier than its median. With --trace 1 one untraced repetition is
followed by traced ones, and the metrics are per-layer times and counts from
the trace, plus the tracing overhead. Without --workload every workload runs
in turn.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Every call of the command is an attempt;
it fails when it raises, or its exit code or verdicts disagree with the oracle
in workloads.py, or its outputs differ from the cold pass (warm pass) or from
the untraced repetition (traced pass). A full record of each run, with the
seed, the machine facts and every repetition, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
FULL = ("cold", "warm")
SETUP_PROBES = 1  # set-up-only interpreters per run, besides one per repetition
HARD_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, trace key, statistic, unit). A trace key is a span name, a layer
# name (statistic "layer"), a counter name (statistic "counter") or a value
# the harness measures itself (statistic "run").
_TRIG = ("maps.TrigField.evaluate", "maps.TrigField.jacobian", "maps.TrigField.evaluate_and_jacobian")
PER_LAYER = (
    ("maps.self_s", "maps", "layer", "s"),
    ("maps.trig.points", _TRIG, "points", "points"),
    ("maps.TorusMap.invert.points", "maps.TorusMap.invert", "points", "points"),
    ("maps.TorusMap.invert.self_s", "maps.TorusMap.invert", "self_s", "s"),
    ("maps.TorusMap.step_with_jacobian.points", "maps.TorusMap.step_with_jacobian", "points", "points"),
    ("maps.TorusMap.invert_with_jacobian.points", "maps.TorusMap.invert_with_jacobian", "points", "points"),
    ("conjugacy.self_s", "conjugacy", "layer", "s"),
    ("conjugacy.h_displacement.calls", "conjugacy.ConjugacyEvaluator.h_displacement", "calls", "calls"),
    ("conjugacy.h_displacement.points", "conjugacy.ConjugacyEvaluator.h_displacement", "points", "points"),
    ("conjugacy.apply.calls", "conjugacy.ConjugacyEvaluator.apply", "calls", "calls"),
    ("conjugacy.apply_inverse.total_s", "conjugacy.ConjugacyEvaluator.apply_inverse", "total_s", "s"),
    ("conjugacy.inverse_fallback.rows", "conjugacy.inverse_fallback", "points", "rows"),
    ("conjugacy.conjugacy_evaluator.calls", "conjugacy.conjugacy_evaluator", "calls", "calls"),
    ("bundles.self_s", "bundles", "layer", "s"),
    ("bundles.qr_pos.calls", "bundles.qr_pos", "calls", "calls"),
    ("bundles.qr_pos.points", "bundles.qr_pos", "points", "frames"),
    ("bundles.qr_pos.self_s", "bundles.qr_pos", "self_s", "s"),
    ("bundles.integrability_verdict.calls", "bundles.integrability_verdict", "calls", "calls"),
    ("bundles.integrability_verdict.total_s", "bundles.integrability_verdict", "total_s", "s"),
    ("leafmetric.self_s", "leafmetric", "layer", "s"),
    ("leafmetric.stable_direction_stack.calls", "leafmetric.stable_direction_stack", "calls", "calls"),
    ("leafmetric.stable_direction_stack.points", "leafmetric.stable_direction_stack", "points", "points"),
    ("leafmetric.stable_direction_stack.total_s", "leafmetric.stable_direction_stack", "total_s", "s"),
    ("leafmetric.unstable_direction_field.calls", "leafmetric.unstable_direction_field", "calls", "calls"),
    ("leafmetric.unstable_direction_field.points", "leafmetric.unstable_direction_field", "points", "points"),
    ("leafmetric.phi.points", "leafmetric.phi", "points", "points"),
    ("leafmetric.phi.total_s", "leafmetric.phi", "total_s", "s"),
    ("leafmetric.livschitz_solve.total_s", "leafmetric.livschitz_solve", "total_s", "s"),
    ("leafmetric.holonomy_isometry_check.total_s", "leafmetric.holonomy_isometry_check", "total_s", "s"),
    (
        "leafmetric.conjugacy_leaf_isometry_check.total_s",
        "leafmetric.conjugacy_leaf_isometry_check",
        "total_s",
        "s",
    ),
    ("orbits.self_s", "orbits", "layer", "s"),
    ("orbits.enumerate_orbits.calls", "orbits.enumerate_orbits", "calls", "calls"),
    ("orbits.enumerate_orbits.total_s", "orbits.enumerate_orbits", "total_s", "s"),
    ("orbits.enumerate_orbits.failures", "orbits.enumerate_orbits.failures", "counter", "count"),
    ("scenarios.self_s", "scenarios", "layer", "s"),
    ("scenarios.cache.conjugacy.hits", "scenarios.cache.conjugacy.hits", "counter", "count"),
    ("scenarios.cache.conjugacy.misses", "scenarios.cache.conjugacy.misses", "counter", "count"),
    ("scenarios.cache.orbits.hits", "scenarios.cache.orbits.hits", "counter", "count"),
    ("scenarios.cache.orbits.misses", "scenarios.cache.orbits.misses", "counter", "count"),
    ("scenarios.cache.bytes_written", "cache_bytes", "run", "bytes"),
    *(
        (f"scenarios.stage_{stage}.total_s", f"scenarios.stage_{stage}", "total_s", "s")
        for stage in ("analyze", "certify", "conjugacy", "orbits", "branches", "metric")
    ),
    ("linear.self_s", "linear", "layer", "s"),
    ("intlinalg.self_s", "intlinalg", "layer", "s"),
    ("cli.self_s", "cli", "layer", "s"),
    ("trace.wall_s", "traced_wall_s", "run", "s"),
    ("trace.untraced_wall_s", "untraced_wall_s", "run", "s"),
    ("trace.overhead_s", "overhead_s", "run", "s"),
    ("trace.unattributed_s", "unattributed_s", "run", "s"),
    ("trace.spans", "spans", "run", "count"),
)


# -- repetitions -------------------------------------------------------------------


@dataclass
class Rep:
    """One worker: its directory, scenario seed, passes, calls and result (None if it failed)."""

    dir: Path
    seed: int
    passes: tuple[str, ...]
    calls: list
    result: dict | None


class Run:
    """One benchmark run of one workload: its clock, repetitions and checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.dir = WORK / "work" / f"{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0
        self.setup_s: list[float] = []
        self.reps: list[Rep] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.facts: dict = {}

    def spawn(self, seed: int, setup_only: bool = False, trace: bool = False, passes=FULL) -> Rep:
        """Start one worker on the inputs of `seed` and wait for it."""
        rep = Rep(self.dir / f"rep{self.count}", seed, passes, [], None)
        self.count += 1
        rep.dir.mkdir()
        rep.calls = workloads.plan(self.workload, seed, ROOT, rep.dir)
        plan = {
            "seed": seed,
            "trace": trace,
            "passes": list(passes),
            "calls": [{"verb": c.verb, "config": c.config, "out": c.out} for c in rep.calls],
        }
        (rep.dir / "plan.json").write_text(json.dumps(plan))
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(rep.dir / "plan.json"), str(rep.dir)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, ANOSOVLAB_CACHE=str(rep.dir / "cache"), OPENBLAS_NUM_THREADS="1")
        timeout = max(5.0, self.started + HARD_LIMIT_S - time.monotonic())
        load_before = os.getloadavg()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{rep.dir.name}: worker timed out after {timeout:.0f} s")
            return rep
        result_path = rep.dir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{rep.dir.name}: worker exit {proc.returncode}: {tail[0]}")
            return rep
        rep.result = result = json.loads(result_path.read_text())
        result["seed"] = seed
        result["setup_s"] = result["ready_monotonic"] - t0
        result["elapsed_s"] = time.monotonic() - t0
        result["loadavg"] = [load_before, os.getloadavg()]
        self.setup_s.append(result["setup_s"])
        return rep

    def probe_setup(self, probes: int) -> None:
        for _ in range(probes):
            rep = self.spawn(self.seed, setup_only=True)
            if rep.result is not None:
                self.facts = self.facts or rep.result["facts"]
            shutil.rmtree(rep.dir, ignore_errors=True)

    def repeat(self, seeds, trace: bool, cold_tail: bool = False) -> list[Rep]:
        """Repetitions, at least one, until the next one would end after the deadline.

        With cold_tail, a last repetition that has time for its set-up and cold
        pass but not for its warm pass runs the cold pass alone, so that a run
        of long repetitions does not leave a third of its time unmeasured.
        """
        done, full, cold = [], [], []
        passes = FULL
        for seed in seeds:
            t0 = time.monotonic()
            done.append(self.spawn(seed, trace=trace, passes=passes))
            if passes != FULL:
                break
            full.append(time.monotonic() - t0)
            result = done[-1].result
            if result is not None:
                cold.append(result["setup_s"] + result["passes"]["cold"]["wall_s"])
            now = time.monotonic()
            if now + statistics.median(full) <= self.deadline:
                continue
            if cold_tail and cold and now + statistics.median(cold) <= self.deadline:
                passes = ("cold",)
                continue
            break
        return done

    def check(self, rep: Rep, reference: Rep | None = None) -> None:
        """Oracle, cold/warm byte identity and, given a reference, traced/untraced identity."""
        for index, call in enumerate(rep.calls):
            for name in rep.passes:
                self.attempted += 1
                problems = []
                if rep.result is None:
                    problems.append("worker failed")
                else:
                    errors = rep.result["passes"][name]["errors"]
                    code = rep.result["passes"][name]["exit_codes"][index]
                    out = rep.dir / name / call.out
                    if code is None:
                        problems.append(f"raised: {errors[-1].strip().splitlines()[-1] if errors else '?'}")
                    else:
                        problems += workloads.check(call, out, code)
                        files = workloads.output_files(out)
                        if name == "warm" and files != workloads.output_files(rep.dir / "cold" / call.out):
                            problems.append("warm outputs differ from the cold pass")
                        if reference is not None and files != workloads.output_files(
                            reference.dir / name / call.out
                        ):
                            problems.append("traced outputs differ from the untraced repetition")
                if problems:
                    self.failed += 1
                    self.problems += [f"{rep.dir.name} seed {rep.seed} {name} {call.out}: {p}" for p in problems]


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else float("nan")


def _trace_value(trace: dict, extra: dict, key, stat: str) -> float:
    if stat == "layer":
        return trace["layers"][key]
    if stat == "counter":
        return trace["counters"].get(key, 0)
    if stat == "run":
        return extra[key]
    keys = key if isinstance(key, tuple) else (key,)
    return sum(trace["functions"].get(k, {}).get(stat, 0) for k in keys)


def _pass_wall(result: dict) -> float:
    return sum(p["wall_s"] for p in result["passes"].values())


def end_to_end(run: Run) -> dict:
    run.probe_setup(SETUP_PROBES)
    seeds = (workloads.scenario_seed(run.workload, run.seed, i) for i in itertools.count())
    run.reps = run.repeat(seeds, trace=False, cold_tail=True)
    for rep in run.reps:
        run.check(rep)
    good = [rep.result for rep in run.reps if rep.result is not None]
    full = [rep.result for rep in run.reps if rep.result is not None and rep.passes == FULL]
    values = {
        "setup_s": _median(run.setup_s),
        # pass times: the mean over the run's repetitions (see the module docstring)
        "run_s": _mean([r["passes"]["cold"]["wall_s"] for r in good]),
        "rerun_s": _mean([r["passes"]["warm"]["wall_s"] for r in full]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in full]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run, results: Path) -> dict:
    """One untraced repetition, then traced ones, all at the run's first scenario seed."""
    run.probe_setup(1)  # machine facts only
    seed = workloads.scenario_seed(run.workload, run.seed, 0)
    base = run.spawn(seed)
    run.check(base)
    traced = run.repeat(itertools.repeat(seed), trace=True)
    for rep in traced:
        run.check(rep, reference=base if base.result is not None else None)
    run.reps = [base, *traced]
    good = [rep for rep in traced if rep.result is not None]
    if not good or base.result is None:
        return {name: {"value": float("nan"), "unit": unit} for name, _, _, unit in PER_LAYER}
    shutil.copyfile(good[-1].dir / "spans.npz", results.with_suffix(".spans.npz"))

    untraced = _pass_wall(base.result)
    samples = []
    for rep in good:
        r = rep.result
        wall = _pass_wall(r)
        extra = {
            "cache_bytes": r["cache_bytes"],
            "traced_wall_s": wall,
            "untraced_wall_s": untraced,
            "overhead_s": wall - untraced,
            "unattributed_s": wall - sum(r["trace"]["layers"].values()),
            "spans": r["trace"]["spans"],
        }
        samples.append({name: _trace_value(r["trace"], extra, key, stat) for name, key, stat, _ in PER_LAYER})
    # counts repeat exactly at one seed; times are medians
    counts = [{name: s[name] for name, _, _, unit in PER_LAYER if unit != "s"} for s in samples]
    if any(c != counts[0] for c in counts):
        run.problems.append("trace counts differ between traced repetitions of one seed")
    return {
        name: {"value": _median([s[name] for s in samples]) if unit == "s" else counts[0][name], "unit": unit}
        for name, _, _, unit in PER_LAYER
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    run = Run(workload, seed, seconds)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    try:
        metrics = per_layer(run, results) if trace else end_to_end(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "elapsed_s": time.monotonic() - run.started,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            **run.facts,
        },
        "loadavg": [load_start, os.getloadavg()],
        "setup_s": run.setup_s,
        "repetitions": [
            {"seed": rep.seed, "calls": [c.__dict__ for c in rep.calls], "result": rep.result}
            for rep in run.reps
        ],
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
    }
    results.write_text(json.dumps(record, indent=1, default=list))
    return record


def _report(record: dict) -> None:
    w = record["workload"]
    reps = len(record["repetitions"])
    for name, m in record["metrics"].items():
        print(f"{w:8s} {name:50s} {m['value']:.6g} {m['unit']} ({reps} repetitions)")
    frac = record["failed"] / max(1, record["attempted"])
    print(f"{w:8s} {'failed_frac':50s} {frac:.6g} ({record['failed']} of {record['attempted']} calls)")
    for p in record["problems"]:
        print(f"{w:8s} problem: {p}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, help="default: every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [q for q in ("src/anosovlab/cli.py", "configs") if not (ROOT / q).exists()]
    if missing:
        print(f"error: not an anosovlab checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for record in records:
        _report(record)
    unmeasured = [r["workload"] for r in records if any(math.isnan(m["value"]) for m in r["metrics"].values())]
    if unmeasured:
        print(f"error: no repetition succeeded for {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = sum(len(r["problems"]) for r in records)
    print(json.dumps({
        "correct": failed == 0 and problems == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
