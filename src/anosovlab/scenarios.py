"""Config-driven experiment runner binding the analysis modules together.

A scenario is a YAML file naming a fixture, tolerances, depths, sampling
counts, a seed and an output directory. `run_scenario` executes the requested
pipeline stages (or the dichotomy sweep) over one `RunContext`, which builds
each shared artifact at most once, and writes one CSV per report plus a
plain-text summary.
Verdict-level findings (non-special, non-rigid, branch-dependent unstable
directions, failed certification, ...) are collected rather than raised, and
drive the exit code: 0 clean, 2 findings, 1 infrastructure error.

Determinism contract: every sampled quantity is derived from the scenario
seed, and CSV bodies are byte-identical across repeated runs. Sweep rows run
one after another in input order. Wall-clock data goes to run_meta.txt only.

Each stage's outcome (summary pairs, findings, rendered CSV tables) is cached
on disk as one JSON record, keyed by the stage name, every scenario field that
can move its bytes, the numpy version and a digest of the package's sources,
so a cache hit writes exactly what a cold run writes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from hashlib import sha256
from pathlib import Path

import numpy as np
import yaml

from anosovlab.bundles import IntegrabilityReport, integrability_verdict
from anosovlab.conjugacy import (
    ConjugacyEvaluator,
    SpecialnessReport,
    conjugacy_evaluator,
    deep_translation_decay,
    specialness_defect,
)
from anosovlab.errors import (
    AnosovLabError,
    CertificationFailed,
    ConfigInvalid,
    ObstructionNonzero,
    RefusedNonIntegrable,
)
from anosovlab.leafmetric import (
    ConjugacyIsometryReport,
    conjugacy_leaf_isometry_check,
    fourier_order_problem,
    holonomy_isometry_check,
    livschitz_solve,
    stable_log_norm_observable,
)
from anosovlab.linear import covering_radius_table
from anosovlab.maps import (
    FIXTURE_NAMES,
    TorusMap,
    anosov_certificate,
    check_fixture,
    fixture_catalog,
    local_diffeo_margin,
)
from anosovlab.orbits import (
    OrbitInventory,
    RigidityReport,
    enumerate_orbits,
    rigidity_report,
)
from anosovlab.util import float_cell

STAGES = ("analyze", "certify", "conjugacy", "orbits", "branches", "metric")

CACHE_ENV = "ANOSOVLAB_CACHE"


# -- scenario config -----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Validated run configuration; the seed determines all sampling."""

    fixture: str
    epsilon: float = 0.0
    custom: dict | None = None
    # tolerances
    rigidity_threshold: float = 5e-4
    spread_tol: float = 1e-3
    residual_target: float = 1e-9
    specialness_threshold: float = 1e-4
    obstruction_tol: float = 1e-4
    exponent_tol: float = 1e-4
    isometry_tol: float = 1e-3
    # depths
    series_depth: int | None = None
    branch_depth: int = 12
    max_period: int = 3
    fourier_order: int | None = None  # None: livschitz_solve's default for the dimension
    # sampling counts
    points: int = 50
    codes_per_point: int = 8
    pairs: int = 100
    seed: int = 0
    out_dir: str = "runs/scenario"
    stages: tuple[str, ...] = STAGES
    dichotomy_family: str | None = None
    dichotomy_epsilons: tuple[float, ...] = ()

    def build_map(self) -> TorusMap:
        return fixture_catalog(self.fixture, self.epsilon, custom=self.custom)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# kind -> (what a value must be, test, conversion to the Scenario field)
_KINDS = {
    "pos_float": ("a number > 0", lambda v: _number(v) and v > 0, float),
    "nonneg_float": ("a number >= 0", lambda v: _number(v) and v >= 0, float),
    "pos_int": ("an integer >= 1", lambda v: _integer(v) and v >= 1, int),
    "opt_pos_int": ("an integer >= 1 or null", lambda v: v is None or _integer(v) and v >= 1, lambda v: v),
    "nonneg_int": ("an integer >= 0", lambda v: _integer(v) and v >= 0, int),
    "path": ("a non-empty path string", lambda v: isinstance(v, str) and v != "", str),
    "mapping": ("a mapping", lambda v: v is None or isinstance(v, dict), lambda v: v),
    "fixture": (f"one of {', '.join(FIXTURE_NAMES)}", lambda v: v in FIXTURE_NAMES, str),
    "sweepable": ("a fixture other than custom, which cannot be swept",
                  lambda v: v in FIXTURE_NAMES and v != "custom", str),
    "stages": (f"a list of stage names from {', '.join(STAGES)}",
               lambda v: isinstance(v, list) and all(s in STAGES for s in v),
               lambda v: tuple(s for s in STAGES if s in v)),
    "epsilons": ("a non-empty list of numbers >= 0",
                 lambda v: isinstance(v, list) and v != [] and all(_number(e) and e >= 0 for e in v),
                 lambda v: tuple(float(e) for e in v)),
}

# yaml path -> (Scenario field, kind): every config key, declared once. A key
# the config leaves out keeps the field's default.
_KEYS = {
    "fixture.name": ("fixture", "fixture"),
    "fixture.epsilon": ("epsilon", "nonneg_float"),
    "fixture.custom": ("custom", "mapping"),
    "tolerances.rigidity": ("rigidity_threshold", "pos_float"),
    "tolerances.spread": ("spread_tol", "pos_float"),
    "tolerances.conjugacy_residual": ("residual_target", "pos_float"),
    "tolerances.specialness": ("specialness_threshold", "pos_float"),
    "tolerances.obstruction": ("obstruction_tol", "pos_float"),
    "tolerances.exponent": ("exponent_tol", "pos_float"),
    "tolerances.isometry": ("isometry_tol", "pos_float"),
    "depths.series": ("series_depth", "opt_pos_int"),
    "depths.branch": ("branch_depth", "pos_int"),
    "depths.max_period": ("max_period", "pos_int"),
    "depths.fourier_order": ("fourier_order", "pos_int"),
    "sampling.points": ("points", "pos_int"),
    "sampling.codes_per_point": ("codes_per_point", "pos_int"),
    "sampling.pairs": ("pairs", "pos_int"),
    "seed": ("seed", "nonneg_int"),
    "output": ("out_dir", "path"),
    "stages": ("stages", "stages"),
    "dichotomy.family": ("dichotomy_family", "sweepable"),
    "dichotomy.epsilons": ("dichotomy_epsilons", "epsilons"),
}

_SECTIONS = {path.split(".")[0] for path in _KEYS if "." in path}

# sampling counts below 2 make a verdict hold by construction
_AT_LEAST_TWO = {
    "codes_per_point": "one branch code per point leaves no pair of branches to compare",
    "pairs": "one pair fits the isometry scale exactly, so its deviation is 0",
}


# libyaml's parser when PyYAML was built with it; the constructor is the same
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text: str):
    """The YAML document in `text`, parsed as yaml.safe_load parses it.

    libyaml parses a shipped config in a fraction of the pure-Python scanner's
    time, which every command and every cache hit pays. Text it rejects is
    parsed again by the pure-Python loader, whose error quotes the offending
    line and which decides whether the text is valid.
    """
    try:
        return yaml.load(text, Loader=_FAST_LOADER)
    except yaml.YAMLError:
        return yaml.safe_load(text)


def load_scenario(source) -> Scenario:
    """Parse and validate a config: the path of a YAML file, or the mapping it parses to.

    Raises ConfigInvalid listing every problem found, with field paths.
    """
    if isinstance(source, dict):
        cfg = source
    else:
        try:
            text = Path(source).read_text()
        except FileNotFoundError as exc:
            raise ConfigInvalid([f"config file {source} does not exist"]) from exc
        except OSError as exc:
            raise ConfigInvalid([f"cannot read config: {exc}"]) from exc
        try:
            cfg = _parse_yaml(text)
        except yaml.YAMLError as exc:
            raise ConfigInvalid([f"not valid YAML: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid(["config root must be a mapping"])

    problems: list[str] = []
    bad: set[str] = set()  # key paths with a problem

    def refuse(path: str, why: str) -> None:
        problems.append(f"{path}: {why}")
        bad.add(path)

    values: dict = {}
    given: set[str] = set()  # key paths the config sets, valid or not
    for key, value in cfg.items():
        if key in _SECTIONS:
            if value is None:
                continue
            if not isinstance(value, dict):
                refuse(key, f"must be a mapping, got {value!r}")
                continue
            items = [(f"{key}.{sub}", v) for sub, v in value.items()]
        else:
            items = [(str(key), value)]
        for path, v in items:
            if path not in _KEYS:
                refuse(path, "unknown key")
                continue
            given.add(path)
            target, kind = _KEYS[path]
            what, ok, convert = _KINDS[kind]
            if ok(v):
                values[target] = convert(v)
            else:
                refuse(path, f"must be {what}, got {v!r}")

    # the keys a config must set: the fixture's name, and a sweep's family and grid
    sweep = ["dichotomy.family", "dichotomy.epsilons"] if cfg.get("dichotomy") is not None else []
    for path in ["fixture.name"] + sweep:
        if path not in given and path.split(".")[0] not in bad:
            refuse(path, "required")
    # a stand-in fixture lets the checks below run when fixture.name is bad
    sc = Scenario(**{"fixture": None, **values})

    for target, why in _AT_LEAST_TWO.items():
        if getattr(sc, target) < 2:
            refuse(f"sampling.{target}", f"must be >= 2; {why}")
    if sc.fixture is not None and not bad & {"fixture.epsilon", "fixture.custom"}:
        try:
            dim = check_fixture(sc.fixture, sc.epsilon, sc.custom)
        except (ValueError, AnosovLabError) as exc:
            custom = sc.fixture == "custom" or sc.custom is not None
            refuse(f"fixture.{'custom' if custom else 'epsilon'}", str(exc))
        else:
            problem = sc.fourier_order and fourier_order_problem(dim, sc.fourier_order)
            if problem:
                refuse("depths.fourier_order", problem)
    if sc.dichotomy_family is not None and "dichotomy.epsilons" not in bad:
        try:
            for eps in sc.dichotomy_epsilons:
                check_fixture(sc.dichotomy_family, eps)
        except ValueError as exc:
            refuse("dichotomy.epsilons", str(exc))

    if problems:
        raise ConfigInvalid(sorted(problems))
    return sc


# -- stage cache -----------------------------------------------------------------


def cache_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else Path.home() / ".cache" / "anosovlab"


@cache
def source_digest() -> str:
    """Digest of the package's own sources: any code change is a cache miss.

    Computed once per process, since the modules it runs cannot change under it.
    """
    h = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(f"{path.name}\0{sha256(path.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


def stage_key(stage: str, sc: Scenario) -> str:
    """Hash of a stage, the scenario fields that can move its bytes and the code.

    The output directory and the stage list move no byte of a stage's outcome,
    so they stay out of the key.
    """
    inputs = {f.name: getattr(sc, f.name) for f in fields(sc) if f.name not in ("out_dir", "stages")}
    blob = json.dumps([stage, inputs, np.__version__, source_digest()], default=repr)
    return sha256(blob.encode()).hexdigest()


def _make_dir(path: Path, what: str) -> None:
    """Create a directory the run writes into, or raise ConfigInvalid naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        raise ConfigInvalid([f"{what} {path} exists and is not a directory"]) from exc
    except OSError as exc:
        raise ConfigInvalid([f"{what} {path} cannot be created: {exc.strerror}"]) from exc


def _cache_file(key: str) -> Path:
    return cache_root() / key[:2] / (key + ".json")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write through a temporary file of this writer's own, then rename.

    Concurrent writers of one key each rename a complete file of their own;
    the last rename wins.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _cache_read(key: str) -> dict | None:
    """The stored record, or None when absent or unreadable (a corrupt entry is a miss)."""
    try:
        record = json.loads(_cache_file(key).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or record.keys() != {"summary", "findings", "tables"}:
        return None
    return record


# -- report plumbing -------------------------------------------------------------


@dataclass
class StageOutcome:
    """What a stage computed; the runner renders, writes and caches it."""

    summary: list  # (key, value-string) pairs
    findings: list
    tables: dict  # CSV file name -> rows


@dataclass(frozen=True)
class ScenarioResult:
    exit_code: int
    findings: tuple[str, ...]
    files: tuple[str, ...]
    summary_path: str
    error: str | None = None


def _render(outcome: StageOutcome) -> dict:
    """The JSON-safe form the runner writes and caches: each table as CSV text."""
    tables = {}
    for name, rows in outcome.tables.items():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        tables[name] = buf.getvalue()
    return {"summary": [list(p) for p in outcome.summary], "findings": list(outcome.findings), "tables": tables}


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _kv_csv(pairs: list) -> list:
    return [["property", "value"]] + [[k, v] for k, v in pairs]


# -- per-run context -------------------------------------------------------------


@dataclass
class RunContext:
    """One run: the scenario and its shared artifacts.

    Every artifact is built on first use and then shared, so a stage that
    needs the orbit inventory or the integrability verdict reads the one an
    earlier stage computed, and nothing a run does not need is built. Each
    artifact's arguments and seed offset are stated here and nowhere else.
    """

    sc: Scenario

    @cached_property
    def f(self) -> TorusMap:
        return self.sc.build_map()

    @cached_property
    def evaluator(self) -> ConjugacyEvaluator:
        return conjugacy_evaluator(self.f, self.sc.residual_target, self.sc.series_depth)

    @cached_property
    def inventory(self) -> OrbitInventory:
        return enumerate_orbits(self.f, self.sc.max_period)

    @cached_property
    def specialness(self) -> SpecialnessReport:
        sc = self.sc
        return specialness_defect(self.evaluator, sc.points, sc.seed + 11, sc.specialness_threshold)

    @cached_property
    def integrability(self) -> IntegrabilityReport:
        sc = self.sc
        return integrability_verdict(
            self.f, sc.points, sc.codes_per_point, sc.branch_depth, sc.spread_tol, sc.seed + 13
        )

    @cached_property
    def rigidity(self) -> RigidityReport:
        return rigidity_report(self.f, self.inventory, self.sc.rigidity_threshold)


# -- stages ----------------------------------------------------------------------


def _stage_analyze(run: RunContext) -> StageOutcome:
    f = run.f
    m = f.model
    pairs = [
        ("fixture", f.label),
        ("dim", str(m.dim)),
        ("matrix", "; ".join(" ".join(str(int(round(v))) for v in row) for row in m.matrix.array.tolist())),
        ("char_poly", " ".join(str(c) for c in m.char_poly)),
        ("degree", str(m.degree)),
        ("irreducible", _yn(m.irreducible)),
        ("stable_dim", str(m.stable_dim)),
        ("stable_eigenvalues", " ".join(float_cell(v) for v in m.stable_eigenvalues)),
        ("stable_exponents", " ".join(float_cell(v) for v in m.stable_exponents)),
        ("unstable_moduli", " ".join(float_cell(v) for v in m.unstable_moduli)),
        ("stable_norm", float_cell(m.stable_norm)),
        ("unstable_conorm", float_cell(m.unstable_conorm)),
    ]
    k_max = 8 if m.dim == 2 else 5
    table = covering_radius_table(m.matrix, k_max)
    rows = [["k", "radius", "bound", "fitted_constant"]]
    for entry in table:
        rows.append([
            str(entry["k"]),
            float_cell(entry["radius"]),
            float_cell(entry["bound"]),
            float_cell(entry["fitted_constant"]),
        ])
    # descriptive only: the k=1 fitted bound is tight for the 2x2 model but
    # reducible matrices with a unimodular block never equidistribute preimages
    violations = [e["k"] for e in table[1:] if e["radius"] > e["bound"] * (1 + 1e-9)]
    summary = pairs + [
        ("covering_r0", float_cell(table[0]["radius"])),
        ("covering_constant", float_cell(table[0]["fitted_constant"])),
        ("covering_bound_held", _yn(not violations)),
    ]
    return StageOutcome(summary, [], {"analyze.csv": _kv_csv(pairs), "covering.csv": rows})


def _stage_certify(run: RunContext) -> StageOutcome:
    f = run.f
    margin, worst = local_diffeo_margin(f)
    findings = []
    try:
        cert = anosov_certificate(f)
        pairs = [
            ("certified", _yn(cert.certified)),
            ("grid_n", str(cert.grid_n)),
            ("iterations", str(cert.iterations)),
            ("cone_slope", float_cell(cert.cone_slope)),
            ("expansion_min", float_cell(cert.expansion_min)),
            ("slope_margin_min", float_cell(cert.slope_margin_min)),
            ("backward_expansion_min", float_cell(cert.backward_expansion_min)),
            ("backward_slope_margin_min", float_cell(cert.backward_slope_margin_min)),
            ("grid_sensitivity", float_cell(cert.grid_sensitivity)),
            ("diffeo_margin", float_cell(margin)),
        ]
    except CertificationFailed as exc:
        findings.append(f"cone-field certification failed: {exc}")
        pairs = [
            ("certified", "no"),
            ("failure", str(exc)),
            ("diffeo_margin", float_cell(margin)),
        ]
    return StageOutcome(pairs, findings, {"certify.csv": _kv_csv(pairs)})


def _stage_conjugacy(run: RunContext) -> StageOutcome:
    f, sc, ce = run.f, run.sc, run.evaluator
    rng = np.random.default_rng(sc.seed + 29)
    x = rng.random((64, f.dim)) * 2.0 - 0.5
    lhs = ce.apply(x) @ f.model.array.T
    rhs = ce.apply(f.evaluate(x))
    residual = float(np.abs(lhs - rhs).max())
    y = rng.random((32, f.dim))
    roundtrip = float(np.abs(ce.apply_inverse(ce.apply(y)) - y).max())
    rep = run.specialness
    decay = deep_translation_decay(ce, sc.seed + 31)

    findings = []
    if not rep.special:
        findings.append(
            "conjugacy does not commute with integer translations "
            f"(defect {rep.max_defect:.3e} vs sup|u| {rep.u_sup_measured:.3e}): map is not special"
        )
    pairs = [
        ("series_depth", str(ce.series_depth)),
        ("tail_bound", float_cell(ce.tail_bound)),
        ("sup_bound", float_cell(ce.sup_bound)),
        ("sampled_residual", float_cell(residual)),
        ("roundtrip_error", float_cell(roundtrip)),
        ("special", _yn(rep.special)),
        ("specialness_defect", float_cell(rep.max_defect)),
        ("defect_unstable_component", float_cell(rep.max_unstable_component)),
        ("decay_fitted_rate", float_cell(decay.fitted_rate)),
        ("decay_expected_rate", float_cell(decay.stable_log_norm)),
    ]
    return StageOutcome(pairs, findings, {"conjugacy.csv": rep.csv_rows(), "decay.csv": decay.csv_rows()})


def _stage_orbits(run: RunContext) -> StageOutcome:
    sc, inv, rep = run.sc, run.inventory, run.rigidity
    findings = []
    if not inv.complete:
        findings.append(
            f"orbit enumeration incomplete: expected {inv.expected_counts}, found {inv.found_counts}"
        )
    if not rep.rigid:
        note = ""
        if not run.f.model.irreducible:
            note = " (linearization is reducible, so agreement with the linear spectrum is not expected)"
        findings.append(
            f"periodic stable exponents deviate from the linear model by {rep.max_deviation:.3e} "
            f"> {sc.rigidity_threshold:g}{note}"
        )
    pairs = [
        ("orbit_count", str(len(inv))),
        ("counts_complete", _yn(inv.complete)),
        ("linear_exponents", " ".join(float_cell(v) for v in rep.linear_exponents)),
        ("max_deviation", float_cell(rep.max_deviation)),
        ("max_spread", float_cell(rep.max_spread)),
        ("rigid", _yn(rep.rigid)),
    ]
    return StageOutcome(pairs, findings, {"orbits.csv": rep.csv_rows()})


def _stage_branches(run: RunContext) -> StageOutcome:
    rep = run.integrability
    findings = []
    if not rep.integrable:
        findings.append(
            f"unstable direction depends on the backward branch: spread {rep.max_spread:.3e} rad "
            f"> {rep.tol:g} (witness at {rep.witness['point']})"
        )
    pairs = [
        ("integrable", _yn(rep.integrable)),
        ("max_spread", float_cell(rep.max_spread)),
        ("spread_tol", float_cell(rep.tol)),
        ("depth", str(rep.depth)),
    ]
    return StageOutcome(pairs, findings, {"branches.csv": rep.csv_rows()})


def _stage_metric(run: RunContext) -> StageOutcome:
    f, sc = run.f, run.sc
    findings: list = []
    phi = stable_log_norm_observable(f, sc.branch_depth)
    lam = f.model.stable_exponents[0]
    psi = None
    try:
        sol = livschitz_solve(f, phi, run.inventory, sc.fourier_order, sc.obstruction_tol, sc.seed + 17)
    except ObstructionNonzero as exc:
        sol = exc.solution
        findings.append(
            f"stable log-norm cocycle has a periodic obstruction of {sol.obstruction:.3e}: "
            "no continuous transfer function; affine metric skipped"
        )
    else:
        if abs(sol.mean - lam) > sc.exponent_tol:
            findings.append(
                f"cocycle mean {sol.mean:.8f} differs from the linear stable exponent "
                f"{lam:.8f} by more than {sc.exponent_tol:g}; affine metric skipped"
            )
        else:
            psi = sol.negated()
    tables = {"coboundary.csv": sol.csv_rows()}
    pairs = [
        ("cocycle_mean", float_cell(sol.mean)),
        ("linear_exponent", float_cell(lam)),
        ("fourier_residual", float_cell(sol.residual)),
        ("periodic_obstruction", float_cell(sol.obstruction)),
        ("transfer_sup", float_cell(sol.sup_transfer)),
    ]

    if psi is None:
        iso = ConjugacyIsometryReport(
            status="skipped_non_rigid",
            scale=float("nan"),
            max_relative_deviation=float("nan"),
            pairs=0,
            rows=(),
        )
    else:
        iso = conjugacy_leaf_isometry_check(f, run.evaluator, psi, sc.pairs, sc.seed + 19, sc.branch_depth)
        if iso.max_relative_deviation > sc.isometry_tol:
            findings.append(
                f"conjugacy is not a leaf isometry after scaling: worst deviation "
                f"{iso.max_relative_deviation:.3e} > {sc.isometry_tol:g}"
            )
    tables["isometry.csv"] = iso.csv_rows()
    pairs += [
        ("isometry_status", iso.status),
        ("isometry_scale", float_cell(iso.scale)),
        ("isometry_max_deviation", float_cell(iso.max_relative_deviation)),
        ("isometry_pairs", str(iso.pairs)),
    ]

    if psi is not None and f.dim == 2:
        try:
            hol = holonomy_isometry_check(f, run.integrability, psi, sc.points, sc.seed + 23, sc.branch_depth)
        except RefusedNonIntegrable:
            findings.append("unstable holonomy refused: branch-dependent unstable directions")
            pairs.append(("holonomy_status", "refused_non_integrable"))
        else:
            tables["holonomy.csv"] = hol.csv_rows()
            if hol.max_relative_defect > sc.isometry_tol:
                findings.append(
                    f"unstable holonomy is not an isometry for the affine metric: worst defect "
                    f"{hol.max_relative_defect:.3e} > {sc.isometry_tol:g}"
                )
            pairs += [
                ("holonomy_status", "ok"),
                ("holonomy_max_defect", float_cell(hol.max_relative_defect)),
                ("holonomy_samples", str(hol.samples)),
            ]
    else:
        reason = "non_rigid" if psi is None else "dim_not_2"
        pairs.append(("holonomy_status", f"skipped_{reason}"))
    return StageOutcome(pairs, findings, tables)


# -- dichotomy sweep ------------------------------------------------------------------

# a sweep diagnostic at or below this level counts as vanished
_VANISHED = 1e-6


@dataclass(frozen=True)
class DichotomyRow:
    epsilon: float
    specialness_defect: float
    max_branch_spread: float
    rigidity_deviation: float
    special: bool
    integrable: bool
    rigid: bool

    @property
    def agreement(self) -> bool:
        return self.integrable == self.rigid


@dataclass(frozen=True)
class DichotomyReport:
    """Per-epsilon dichotomy diagnostics for one fixture family."""

    family: str
    irreducible: bool
    rows: tuple[DichotomyRow, ...]

    @property
    def all_agree(self) -> bool:
        return all(r.agreement for r in self.rows)

    def co_vanishing(self) -> bool:
        """All three diagnostics shrink toward zero as epsilon does.

        Values at or below _VANISHED count as zero; above it each diagnostic
        must be nondecreasing in epsilon.
        """
        ordered = sorted(self.rows, key=lambda r: r.epsilon)
        for take in (
            lambda r: r.specialness_defect,
            lambda r: r.max_branch_spread,
            lambda r: r.rigidity_deviation,
        ):
            vals = [take(r) for r in ordered]
            floored = [0.0 if v <= _VANISHED else v for v in vals]
            if any(b < a for a, b in zip(floored, floored[1:])):
                return False
            if ordered[0].epsilon == 0.0 and floored[0] != 0.0:
                return False
        return True

    def csv_rows(self) -> list:
        out = [[
            "epsilon", "specialness_defect", "max_branch_spread", "rigidity_deviation",
            "special", "integrable", "rigid", "agreement",
        ]]
        for r in self.rows:
            out.append([
                float_cell(r.epsilon),
                float_cell(r.specialness_defect),
                float_cell(r.max_branch_spread),
                float_cell(r.rigidity_deviation),
                _yn(r.special),
                _yn(r.integrable),
                _yn(r.rigid),
                _yn(r.agreement),
            ])
        return out


def _dichotomy_row(family: str, eps: float, sc: Scenario) -> DichotomyRow:
    """The three verdicts of one family member, read from its own run context."""
    run = RunContext(replace(sc, fixture=family, epsilon=eps, custom=None))
    sp, iv, rep = run.specialness, run.integrability, run.rigidity
    return DichotomyRow(
        epsilon=eps,
        specialness_defect=sp.max_defect,
        max_branch_spread=iv.max_spread,
        rigidity_deviation=rep.max_deviation,
        special=sp.special,
        integrable=iv.integrable,
        rigid=rep.rigid,
    )


def dichotomy_sweep(family: str, epsilons, sc: Scenario) -> DichotomyReport:
    """Specialness, branch spread and rigidity per epsilon, in input order."""
    eps = [float(e) for e in epsilons]
    rows = tuple(_dichotomy_row(family, e, sc) for e in eps)
    irreducible = fixture_catalog(family, eps[0] if eps else 0.0).model.irreducible
    return DichotomyReport(family=family, irreducible=irreducible, rows=rows)


def _stage_dichotomy(run: RunContext) -> StageOutcome:
    """The epsilon sweep configured in the scenario's dichotomy section."""
    sc = run.sc
    report = dichotomy_sweep(sc.dichotomy_family, sc.dichotomy_epsilons, sc)
    findings = []
    if report.irreducible and not report.all_agree:
        bad = [r.epsilon for r in report.rows if not r.agreement]
        findings.append(f"integrability and rigidity verdicts disagree at epsilon={bad}")
    pairs = [
        ("family", report.family),
        ("irreducible", _yn(report.irreducible)),
        ("epsilons", " ".join(float_cell(r.epsilon) for r in report.rows)),
        ("all_agree", _yn(report.all_agree)),
        ("co_vanishing", _yn(report.co_vanishing())),
    ]
    for r in report.rows:
        pairs.append((
            f"eps_{float_cell(r.epsilon)}",
            f"defect={float_cell(r.specialness_defect)} spread={float_cell(r.max_branch_spread)} "
            f"deviation={float_cell(r.rigidity_deviation)} special={_yn(r.special)} "
            f"integrable={_yn(r.integrable)} rigid={_yn(r.rigid)}",
        ))
    return StageOutcome(pairs, findings, {"dichotomy.csv": report.csv_rows()})


# pipeline order; `dichotomy` is not a pipeline stage and runs only when asked for
_STAGE_FN = {
    "analyze": _stage_analyze,
    "certify": _stage_certify,
    "conjugacy": _stage_conjugacy,
    "orbits": _stage_orbits,
    "branches": _stage_branches,
    "metric": _stage_metric,
    "dichotomy": _stage_dichotomy,
}


# -- runner ------------------------------------------------------------------------


def _write_summary(
    path: Path, sc: Scenario, records: list, findings: list, error: str | None, exit_code: int
) -> None:
    lines = [
        f"scenario: {sc.fixture}" + (f" epsilon={sc.epsilon:g}" if sc.epsilon else ""),
        f"seed: {sc.seed}",
        f"stages: {' '.join(name for name, _ in records)}",
        "",
    ]
    for name, record in records:
        lines.append(f"[{name}]")
        lines += [f"{k}: {v}" for k, v in record["summary"]]
        lines.append("")
    lines.append("[findings]")
    lines += findings if findings else ["none"]
    if error:
        lines += ["", "[error]", error]
    lines += ["", f"exit_code: {exit_code}", ""]
    path.write_text("\n".join(lines))


def _write_meta(path: Path, started: float, stage_log: list) -> None:
    lines = [
        f"started_unix: {started:.3f}",
        f"elapsed_seconds: {time.time() - started:.3f}",
        f"numpy: {np.__version__}",
    ]
    for name, cache, seconds in stage_log:
        lines += [f"stage_{name}_cache: {cache}", f"stage_{name}_seconds: {seconds:.3f}"]
    path.write_text("\n".join(lines + [""]))


def _stage_record(run: RunContext, stage: str) -> tuple[dict, bool]:
    """The stage's record and whether the cache served it; a miss computes and stores it."""
    key = stage_key(stage, run.sc)
    record = _cache_read(key)
    if record is not None:
        return record, True
    record = _render(_STAGE_FN[stage](run))
    _atomic_write(_cache_file(key), json.dumps(record).encode())
    return record, False


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Execute the configured stages; write CSV reports, summary.txt, run_meta.txt.

    `sc.stages` names pipeline stages, or `("dichotomy",)` for the sweep. A
    stage whose outcome is cached is not called: its stored tables are written.
    Exit code 0: clean; 2: verdict-level findings (non-special, non-rigid,
    branch-dependent directions, failed certification, metric obstructions,
    disagreeing sweep verdicts); 1: infrastructure error (reported in the
    summary, partial files kept). The sweep without a dichotomy section, or an
    output directory or stage cache (`ANOSOVLAB_CACHE`) that cannot be a
    directory, raises ConfigInvalid before any stage runs or file is written.
    """
    if "dichotomy" in sc.stages and sc.dichotomy_family is None:
        raise ConfigInvalid(["dichotomy: section required for the dichotomy verb"])
    started = time.time()
    run = RunContext(sc)
    out = Path(sc.out_dir)
    _make_dir(cache_root(), f"stage cache ({CACHE_ENV})")
    _make_dir(out, "output directory")
    records: list[tuple[str, dict]] = []
    stage_log: list[tuple[str, str, float]] = []
    findings: list[str] = []
    files: list[str] = []
    error = None
    try:
        for stage in _STAGE_FN:
            if stage not in sc.stages:
                continue
            t0 = time.perf_counter()
            record, hit = _stage_record(run, stage)
            for name, text in record["tables"].items():
                (out / name).write_text(text, newline="")
                files.append(name)
            stage_log.append((stage, "hit" if hit else "miss", time.perf_counter() - t0))
            records.append((stage, record))
            findings += [f"{stage}: {msg}" for msg in record["findings"]]
    except AnosovLabError as exc:
        error = f"{type(exc).__name__}: {exc}"
    exit_code = 1 if error else (2 if findings else 0)
    summary_path = out / "summary.txt"
    _write_summary(summary_path, sc, records, findings, error, exit_code)
    _write_meta(out / "run_meta.txt", started, stage_log)
    return ScenarioResult(
        exit_code=exit_code,
        findings=tuple(findings),
        files=tuple(files),
        summary_path=str(summary_path),
        error=error,
    )
