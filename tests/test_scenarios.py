"""Scenario configs, stage cache, runner exit codes, dichotomy sweeps."""

import dataclasses
import os
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from anosovlab import cli, maps, scenarios
from anosovlab.conjugacy import ConjugacyEvaluator
from anosovlab.errors import ConfigInvalid
from anosovlab.maps import fixture_catalog
from anosovlab.scenarios import (
    STAGES,
    DichotomyReport,
    DichotomyRow,
    RunContext,
    Scenario,
    dichotomy_sweep,
    load_scenario,
    run_scenario,
    stage_key,
)

MINIMAL = {"fixture": {"name": "linear_A0"}}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_SHEAR = {1: [[[1, 0], 0.0, 1.0]]}
# custom fixtures the fixture owner refuses: name -> (custom mapping, what the problem says)
BAD_CUSTOM = {
    "1x1": ({"matrix": [[2]]}, "matrix is 1x1; the kernels support 2x2 and 3x3"),
    "non-square": ({"matrix": [[2, 1, 0], [1, 1, 0]]}, "matrix must be square, got 2 rows of lengths [3, 3]"),
    "4x4": ({"matrix": [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]}, "matrix is 4x4"),
    "not-a-matrix": ({"matrix": 5}, "matrix must be a list of rows"),
    "singular": ({"matrix": [[1, 1], [1, 1]]}, "is singular over Q"),
    "non-integer": ({"matrix": [[2, 1], [1, 1.5]]}, "matrix entry [1][1] = 1.5 is not an integer"),
    "boolean-entry": ({"matrix": [[3, True], [1, 1]]}, "matrix entry [0][1] = True is not an integer"),
    "non-hyperbolic": ({"matrix": [[1, 1], [0, 1]]}, "touch the unit circle"),
    "no-matrix": ({"terms": _SHEAR}, "needs a 'matrix' entry"),
    "unknown-key": ({"matrix": [[3, 1], [1, 1]], "conjugator_term": _SHEAR}, "unknown key 'conjugator_term'"),
    "malformed-terms": ({"matrix": [[3, 1], [1, 1]], "terms": {1: [[1, 0]]}},
                        "terms: term [1, 0] of coordinate 1 is not [[k_1..k_2], cos coefficient, sin coefficient]"),
    "coordinate-out-of-range": ({"matrix": [[3, 1], [1, 1]], "terms": {2: [[[1, 0], 0.0, 1.0]]}},
                                "terms: coordinate index 2 is not an integer in 0..1"),
    "wave-vector-length": ({"matrix": [[3, 1], [1, 1]], "terms": {1: [[[1, 0, 0], 0.0, 1.0]]}},
                           "terms: term [[1, 0, 0], 0.0, 1.0] of coordinate 1 is not"),
    "terms-and-conjugator": ({"matrix": [[3, 1], [1, 1]], "terms": _SHEAR, "conjugator_terms": _SHEAR},
                             "either perturbed (terms) or conjugated (conjugator_terms), not both"),
    "complex-stable-pair": ({"matrix": [[0, 0, 2], [1, 0, -1], [0, 1, 4]],
                             "conjugator_terms": {0: [[[0, 1, 0], 0, 0.1]], 2: [[[1, 0, 0], 0, 0.1]]}},
                            "real, simple stable spectrum"),
    "cat-map": ({"matrix": [[2, 1], [1, 1]]}, "|det| = 1"),
    "expanding": ({"matrix": [[2, 1], [0, 2]], "terms": _SHEAR}, "no eigenvalue inside the unit circle"),
}


class TestLoadScenario:
    def test_defaults(self):
        sc = load_scenario(MINIMAL)
        assert sc.fixture == "linear_A0"
        assert sc.epsilon == 0.0
        assert sc.seed == 0
        assert sc.stages == STAGES
        assert sc.out_dir == "runs/scenario"

    def test_full_mapping(self):
        sc = load_scenario({
            "fixture": {"name": "shear_A0", "epsilon": 0.05},
            "tolerances": {"rigidity": 1e-3, "spread": 2e-3, "conjugacy_residual": 1e-8,
                           "specialness": 1e-5, "obstruction": 1e-3, "exponent": 1e-3,
                           "isometry": 1e-2},
            "depths": {"series": 20, "branch": 10, "max_period": 2, "fourier_order": 8},
            "sampling": {"points": 12, "codes_per_point": 4, "pairs": 30},
            "seed": 7,
            "output": "runs/here",
            "stages": ["certify", "analyze"],
        })
        assert sc.epsilon == 0.05
        assert sc.rigidity_threshold == 1e-3
        assert sc.spread_tol == 2e-3
        assert sc.residual_target == 1e-8
        assert sc.series_depth == 20
        assert sc.max_period == 2
        assert sc.points == 12
        assert sc.seed == 7
        # stage order is normalized to pipeline order
        assert sc.stages == ("analyze", "certify")

    def test_yaml_string(self):
        sc = load_scenario("fixture:\n  name: conjugated_A0\n  epsilon: 0.05\nseed: 3\n")
        assert sc.fixture == "conjugated_A0"
        assert sc.seed == 3

    def test_all_problems_reported_at_once(self):
        bad = {
            "fixture": {"name": "no_such_map", "epsilon": -1, "extra": 1},
            "tolerances": {"rigidity": True, "unknown_tol": 1.0},
            "depths": {"max_period": 0},
            "sampling": {"points": 2.5},
            "seed": -4,
            "stages": ["analyze", "bogus"],
            "surprise": {},
        }
        with pytest.raises(ConfigInvalid) as exc_info:
            load_scenario(bad)
        problems = exc_info.value.problems
        joined = "\n".join(problems)
        for fragment in (
            "fixture.name", "fixture.epsilon", "fixture.extra",
            "tolerances.rigidity", "tolerances.unknown_tol",
            "depths.max_period", "sampling.points",
            "seed", "stages: must be a list of stage names", "'bogus'", "surprise: unknown key",
        ):
            assert fragment in joined, fragment
        assert problems == sorted(problems)

    @pytest.mark.parametrize("key, why", [("codes_per_point", "no pair of branches"), ("pairs", "deviation is 0")])
    def test_sampling_counts_below_two_are_vacuous(self, key, why):
        with pytest.raises(ConfigInvalid) as exc_info:
            load_scenario({**MINIMAL, "sampling": {key: 1}})
        [problem] = exc_info.value.problems
        assert problem.startswith(f"sampling.{key}: must be >= 2") and why in problem
        assert getattr(load_scenario({**MINIMAL, "sampling": {key: 2}}), key) == 2

    def test_fourier_order_that_aliases_on_the_grid(self):
        """Order 32 has more unknowns than the 64^2 grid has points."""
        with pytest.raises(ConfigInvalid) as exc_info:
            load_scenario({**MINIMAL, "depths": {"fourier_order": 32}})
        [problem] = exc_info.value.problems
        assert problem.startswith("depths.fourier_order: must be <= 31") and "64^2 cocycle grid" in problem
        assert load_scenario({**MINIMAL, "depths": {"fourier_order": 31}}).fourier_order == 31

    @pytest.mark.parametrize("fixture", [
        {"name": "product_T3", "epsilon": 0.05},
        {"name": "custom", "custom": {"matrix": [[0, 0, -2], [1, 0, 1], [0, 1, 6]]}},
    ])
    def test_fourier_order_above_six_in_three_dimensions(self, fixture):
        """The 20^3 cocycle grid takes orders up to 6; a 3-D config that omits the key loads."""
        with pytest.raises(ConfigInvalid) as exc_info:
            load_scenario({"fixture": fixture, "depths": {"fourier_order": 7}})
        [problem] = exc_info.value.problems
        assert problem.startswith("depths.fourier_order: must be <= 6 in 3-D") and "20^3 cocycle grid" in problem
        assert load_scenario({"fixture": fixture, "depths": {"fourier_order": 6}}).fourier_order == 6
        assert load_scenario({"fixture": fixture}).fourier_order is None

    def test_rejects_bool_numbers(self):
        with pytest.raises(ConfigInvalid):
            load_scenario({"fixture": {"name": "linear_A0", "epsilon": True}})
        with pytest.raises(ConfigInvalid):
            load_scenario({"fixture": {"name": "linear_A0"}, "seed": True})

    def test_rejects_epsilon_on_rigid_catalog_entries(self):
        with pytest.raises(ConfigInvalid, match="takes no perturbation scale"):
            load_scenario({"fixture": {"name": "linear_A0", "epsilon": 0.1}})
        with pytest.raises(ConfigInvalid, match="takes no perturbation scale"):
            load_scenario({"fixture": {"name": "cubic_companion", "epsilon": 0.1}})

    def test_custom_needs_matrix(self):
        with pytest.raises(ConfigInvalid, match="matrix"):
            load_scenario({"fixture": {"name": "custom"}})
        sc = load_scenario({"fixture": {"name": "custom", "custom": {"matrix": [[3, 1], [1, 1]]}}})
        assert sc.build_map().dim == 2

    @pytest.mark.parametrize("matrix", [
        [[2]],
        [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
    ], ids=["1x1", "4x4"])
    def test_custom_torus_outside_two_and_three_dimensions(self, matrix):
        """The kernels stop at d = 3: a 4x4 matrix once loaded, and `all` then asked
        the cone scan for gigabytes. It is refused at load, before any stage."""
        d = len(matrix)
        with pytest.raises(ConfigInvalid) as exc_info:
            load_scenario({"fixture": {"name": "custom", "custom": {"matrix": matrix}}})
        [problem] = exc_info.value.problems
        assert problem.startswith(f"fixture.custom: matrix is {d}x{d};") and "2x2 and 3x3" in problem

    @pytest.mark.parametrize("custom, why", list(BAD_CUSTOM.values()), ids=list(BAD_CUSTOM))
    def test_bad_custom_fixture_is_one_config_problem(self, custom, why, tmp_path, capsys):
        """Refused at load with one problem naming it, and by the command before any stage runs."""
        cfg = {"fixture": {"name": "custom", "epsilon": 0.02, "custom": custom}, "output": str(tmp_path / "run")}
        with pytest.raises(ConfigInvalid) as exc_info:
            load_scenario(cfg)
        [problem] = exc_info.value.problems
        assert problem.startswith("fixture.custom: ") and why in problem
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli.main(["all", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {problem}\n"
        assert not (tmp_path / "run").exists()

    def test_shipped_configs_analyse_no_matrix(self, monkeypatch):
        """A named fixture is checked from the catalog table: loading a config, which
        every warm run does, builds no map."""
        def refuse(matrix):
            raise AssertionError(f"analysed {matrix}")

        monkeypatch.setattr(maps, "analyze_matrix", refuse)
        for config in sorted(CONFIGS.glob("*.yaml")):
            load_scenario(config)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigInvalid):
            load_scenario("- 1\n- 2\n")
        with pytest.raises(ConfigInvalid):
            load_scenario("fixture: [unclosed\n")

    def test_missing_file_is_named(self, tmp_path):
        for source in (str(tmp_path / "typo.yaml"), tmp_path / "typo.yaml"):
            with pytest.raises(ConfigInvalid) as exc_info:
                load_scenario(source)
            assert exc_info.value.problems == [f"config file {source} does not exist"]
        # an inline one-line mapping is still YAML text, not a path
        assert load_scenario("{fixture: {name: linear_A0}}").fixture == "linear_A0"

    def test_long_yaml_line_is_not_a_path(self):
        """A line longer than a file name may be is YAML text, not a path error."""
        text = "fixture:\n  name: linear_A0\n# " + "x" * 300 + "\n"
        assert load_scenario(text).fixture == "linear_A0"

    def test_dichotomy_section(self):
        sc = load_scenario({
            **MINIMAL,
            "dichotomy": {"family": "shear_A0", "epsilons": [0.0, 0.02]},
        })
        assert sc.dichotomy_family == "shear_A0"
        assert sc.dichotomy_epsilons == (0.0, 0.02)
        with pytest.raises(ConfigInvalid, match="epsilons"):
            load_scenario({**MINIMAL, "dichotomy": {"family": "shear_A0", "epsilons": []}})
        with pytest.raises(ConfigInvalid, match="family"):
            load_scenario({**MINIMAL, "dichotomy": {"family": "nope", "epsilons": [0.1]}})
        with pytest.raises(ConfigInvalid, match=r"dichotomy\.family: must be a fixture other than custom"):
            load_scenario({**MINIMAL, "dichotomy": {"family": "custom", "epsilons": [0.0]}})
        for family in ("linear_A0", "cubic_companion"):
            with pytest.raises(ConfigInvalid, match=r"dichotomy\.epsilons: .* no perturbation scale"):
                load_scenario({**MINIMAL, "dichotomy": {"family": family, "epsilons": [0.0, 0.01]}})
            sc = load_scenario({**MINIMAL, "dichotomy": {"family": family, "epsilons": [0.0]}})
            assert sc.dichotomy_epsilons == (0.0,)


def _meta(out: Path) -> dict[str, str]:
    lines = (out / "run_meta.txt").read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines)


def _cache_states(out: Path) -> dict[str, str]:
    return {k: v for k, v in _meta(out).items() if k.endswith("_cache")}


class TestCache:
    # one changed value per key input; every Scenario field but out_dir and stages
    CHANGED = {
        "fixture": "shear_A0",
        "epsilon": 0.05,
        "custom": {"matrix": [[2, 1], [1, 1]]},
        "rigidity_threshold": 1e-3,
        "spread_tol": 2e-3,
        "residual_target": 1e-8,
        "specialness_threshold": 1e-5,
        "obstruction_tol": 1e-3,
        "exponent_tol": 1e-3,
        "isometry_tol": 1e-2,
        "series_depth": 9,
        "branch_depth": 10,
        "max_period": 2,
        "fourier_order": 8,
        "points": 12,
        "codes_per_point": 4,
        "pairs": 30,
        "seed": 7,
        "dichotomy_family": "shear_A0",
        "dichotomy_epsilons": (0.0, 0.02),
    }

    def test_key_covers_every_input(self):
        base = Scenario(fixture="linear_A0")
        key = stage_key("orbits", base)
        names = {f.name for f in dataclasses.fields(Scenario)}
        assert set(self.CHANGED) == names - {"out_dir", "stages"}
        for name, value in self.CHANGED.items():
            assert stage_key("orbits", dataclasses.replace(base, **{name: value})) != key, name
        assert stage_key("orbits", dataclasses.replace(base, out_dir="elsewhere", stages=("orbits",))) == key
        assert stage_key("metric", base) != key

    def test_key_covers_code_identity(self, monkeypatch):
        base = Scenario(fixture="linear_A0")
        key = stage_key("orbits", base)
        monkeypatch.setattr(scenarios, "source_digest", lambda: "0" * 64)
        assert stage_key("orbits", base) != key
        monkeypatch.undo()
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
        assert stage_key("orbits", base) != key
        monkeypatch.undo()
        assert stage_key("orbits", base) == key

    def test_source_digest_reads_every_module(self, tmp_path, monkeypatch, request):
        request.addfinalizer(scenarios.source_digest.cache_clear)
        package = Path(scenarios.__file__).parent
        for path in package.glob("*.py"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        digest = scenarios.source_digest()
        monkeypatch.setattr(scenarios, "__file__", str(tmp_path / "scenarios.py"))
        scenarios.source_digest.cache_clear()
        assert scenarios.source_digest() == digest
        with open(tmp_path / "util.py", "a") as fh:
            fh.write("\n")
        scenarios.source_digest.cache_clear()
        assert scenarios.source_digest() != digest

    def test_custom_yaml_fixture_has_a_key(self, tmp_path):
        text = (
            "fixture:\n  name: custom\n  epsilon: 0.01\n  custom:\n"
            "    matrix: [[3, 1], [1, 1]]\n    terms: {{1: [[[1, 0], 0.0, {c}]]}}\n"
            f"output: {tmp_path / 'out'}\nstages: [analyze]\n"
        )
        sc = load_scenario(text.format(c=1.0))
        key = stage_key("analyze", sc)
        assert stage_key("analyze", load_scenario(text.format(c=1.0))) == key
        assert stage_key("analyze", load_scenario(text.format(c=0.5))) != key
        assert run_scenario(sc).exit_code == 0
        assert run_scenario(sc).exit_code == 0
        assert _cache_states(tmp_path / "out") == {"stage_analyze_cache": "hit"}

    def test_cold_then_warm_meta_and_bytes(self, tmp_path):
        sc = _small_scenario(tmp_path / "cold")
        cold = run_scenario(sc)
        warm = run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / "warm")))
        assert cold.exit_code == warm.exit_code == 0
        assert cold.files == warm.files
        assert _cache_states(tmp_path / "cold") == {f"stage_{s}_cache": "miss" for s in STAGES}
        assert _cache_states(tmp_path / "warm") == {f"stage_{s}_cache": "hit" for s in STAGES}
        assert all(float(_meta(tmp_path / "warm")[f"stage_{s}_seconds"]) >= 0.0 for s in STAGES)
        assert _read_outputs(tmp_path / "cold") == _read_outputs(tmp_path / "warm")

    def test_warm_run_computes_nothing(self, tmp_path, monkeypatch):
        runs = {
            "all": _small_scenario(tmp_path / "all"),
            "dichotomy": _small_scenario(
                tmp_path / "dichotomy", fixture="shear_A0", dichotomy_family="shear_A0",
                dichotomy_epsilons=(0.0, 0.02), stages=("dichotomy",),
            ),
        }
        cold = {name: run_scenario(sc) for name, sc in runs.items()}
        assert {name: r.exit_code for name, r in cold.items()} == {"all": 0, "dichotomy": 0}

        def refuse(run):
            raise AssertionError("a warm run called a stage")

        for stage in list(scenarios._STAGE_FN):
            monkeypatch.setitem(scenarios._STAGE_FN, stage, refuse)
        for name, sc in runs.items():
            warm = run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / f"{name}_warm")))
            assert warm.exit_code == cold[name].exit_code
            assert _read_outputs(tmp_path / f"{name}_warm") == _read_outputs(tmp_path / name)

    def test_corrupt_entry_falls_back(self, tmp_path):
        sc = _small_scenario(tmp_path / "cold", stages=("analyze",))
        run_scenario(sc)
        entry = scenarios._cache_file(stage_key("analyze", sc))
        assert entry.exists()
        for junk in (b"not json", b'{"summary": []}', b"[1, 2]"):
            entry.write_bytes(junk)
            again = dataclasses.replace(sc, out_dir=str(tmp_path / "again"))
            assert run_scenario(again).exit_code == 0
            assert _cache_states(tmp_path / "again") == {"stage_analyze_cache": "miss"}
            assert _read_outputs(tmp_path / "again") == _read_outputs(tmp_path / "cold")
        run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / "warm")))
        assert _cache_states(tmp_path / "warm") == {"stage_analyze_cache": "hit"}

    def test_concurrent_writers_of_one_entry(self, tmp_path, monkeypatch):
        """Two cold runs of one stage interleave: the first writer is held
        between writing its entry and renaming it until the second is done."""
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / "cache"))
        real_replace = os.replace
        first_wrote, second_done = threading.Event(), threading.Event()
        held = []

        def replace_holding_first_writer(src, dst):
            if threading.current_thread() is not threading.main_thread() and not held:
                held.append(src)
                first_wrote.set()
                assert second_done.wait(30)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_holding_first_writer)
        sc = _small_scenario(tmp_path / "first", stages=("orbits",))
        errors = []

        def first():
            try:
                run_scenario(sc)
            except Exception as exc:  # surfaced below; a thread cannot fail the test
                errors.append(exc)

        writer = threading.Thread(target=first)
        writer.start()
        try:
            assert first_wrote.wait(30)
            second = run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / "second")))
        finally:
            second_done.set()
            writer.join(30)
        assert not writer.is_alive()
        assert errors == []
        assert held
        assert second.exit_code == 0
        warm = run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / "warm")))
        assert warm.exit_code == 0
        assert _cache_states(tmp_path / "warm") == {"stage_orbits_cache": "hit"}
        outputs = [_read_outputs(tmp_path / name) for name in ("first", "second", "warm")]
        assert outputs[0] == outputs[1] == outputs[2]
        leftovers = [p.name for p in (tmp_path / "cache").rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_config_builds_its_map(config):
    text = config.read_text()
    # libyaml's parse: same values, types and key order as the pure-Python loader's
    assert repr(scenarios._parse_yaml(text)) == repr(yaml.safe_load(text))
    sc = load_scenario(config)
    f = sc.build_map()
    assert f.evaluate(np.zeros((1, f.dim))).shape == (1, f.dim)
    if sc.dichotomy_family is not None:
        for eps in sc.dichotomy_epsilons:
            assert fixture_catalog(sc.dichotomy_family, eps).dim >= 2


def test_invalid_yaml_reports_the_pure_python_message():
    text = "fixture:\n  name: [linear_A0,\n"
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.safe_load(text)
    with pytest.raises(ConfigInvalid) as exc_info:
        load_scenario(text)
    assert exc_info.value.problems == [f"not valid YAML: {pure.value}"]


def _small_scenario(tmp_path: Path, **kw) -> Scenario:
    base = dict(
        fixture="linear_A0", out_dir=str(tmp_path), points=8, pairs=10,
        codes_per_point=4, max_period=2, seed=0,
    )
    base.update(kw)
    return Scenario(**base)


def _read_outputs(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "run_meta.txt"
    }


class TestRunScenario:
    def test_clean_run_writes_everything(self, tmp_path):
        sc = _small_scenario(tmp_path / "a")
        result = run_scenario(sc)
        assert result.exit_code == 0
        assert result.error is None
        assert result.findings == ()
        expected = {
            "analyze.csv", "covering.csv", "certify.csv", "conjugacy.csv",
            "decay.csv", "orbits.csv", "branches.csv", "coboundary.csv",
            "isometry.csv", "holonomy.csv",
        }
        assert set(result.files) == expected
        for name in expected:
            assert (tmp_path / "a" / name).exists()
        summary = (tmp_path / "a" / "summary.txt").read_text()
        assert "[findings]" in summary and "none" in summary
        assert "exit_code: 0" in summary
        assert (tmp_path / "a" / "run_meta.txt").exists()

    def test_repeat_runs_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / "cache_one"))  # both runs compute
        r1 = run_scenario(_small_scenario(tmp_path / "one"))
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / "cache_two"))
        r2 = run_scenario(_small_scenario(tmp_path / "two"))
        assert r1.exit_code == r2.exit_code == 0
        assert set(_cache_states(tmp_path / "two").values()) == {"miss"}
        out1 = _read_outputs(tmp_path / "one")
        out2 = _read_outputs(tmp_path / "two")
        assert out1.keys() == out2.keys()
        for name in out1:
            assert out1[name] == out2[name], name

    def test_warm_cache_reproduces_cold(self, tmp_path, shear05):
        sc = _small_scenario(
            tmp_path / "cold", fixture="shear_A0", epsilon=0.05,
            stages=("conjugacy", "orbits"),
        )
        cold = run_scenario(sc)
        warm = run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / "warm")))
        assert cold.exit_code == warm.exit_code
        assert _read_outputs(tmp_path / "cold") == _read_outputs(tmp_path / "warm")

    def test_findings_give_exit_two(self, tmp_path):
        sc = _small_scenario(
            tmp_path / "sh", fixture="shear_A0", epsilon=0.05,
            stages=("conjugacy", "branches"),
        )
        result = run_scenario(sc)
        assert result.exit_code == 2
        joined = "\n".join(result.findings)
        assert "not special" in joined
        assert "backward branch" in joined

    def test_unknown_fixture_is_infrastructure_error(self, tmp_path):
        sc = _small_scenario(tmp_path / "bad", fixture="missing_fixture")
        result = run_scenario(sc)
        assert result.exit_code == 1
        assert result.error is not None and "missing_fixture" in result.error
        assert "[error]" in (tmp_path / "bad" / "summary.txt").read_text()

    def test_stage_subset_runs_in_order(self, tmp_path):
        sc = _small_scenario(tmp_path / "sub", stages=("certify", "analyze"))
        result = run_scenario(sc)
        assert result.exit_code == 0
        summary = (tmp_path / "sub" / "summary.txt").read_text()
        assert summary.index("[analyze]") < summary.index("[certify]")


class TestDichotomy:
    def test_row_agreement(self):
        row = DichotomyRow(0.1, 0.2, 0.3, 0.4, special=False, integrable=False, rigid=False)
        assert row.agreement
        row2 = dataclasses.replace(row, rigid=True)
        assert not row2.agreement

    def test_co_vanishing_logic(self):
        def mk(eps, v):
            return DichotomyRow(eps, v, v, v, special=v == 0, integrable=v == 0, rigid=v == 0)

        good = DichotomyReport("shear_A0", True, (mk(0.0, 0.0), mk(0.01, 0.1), mk(0.02, 0.2)))
        assert good.co_vanishing()
        shrinking = DichotomyReport("shear_A0", True, (mk(0.0, 0.0), mk(0.01, 0.2), mk(0.02, 0.1)))
        assert not shrinking.co_vanishing()
        nonzero_at_origin = DichotomyReport("shear_A0", True, (mk(0.0, 0.5), mk(0.01, 0.6)))
        assert not nonzero_at_origin.co_vanishing()
        # sub-floor noise does not spoil monotonicity
        noisy = DichotomyReport(
            "shear_A0", True, (mk(0.0, 1e-9), mk(0.01, 1e-10), mk(0.02, 0.1))
        )
        assert noisy.co_vanishing()

    def test_sweep_verdicts_and_order(self, tmp_path):
        sc = _small_scenario(tmp_path, fixture="shear_A0")
        report = dichotomy_sweep("shear_A0", [0.0, 0.02], sc)
        assert report.irreducible
        assert [r.epsilon for r in report.rows] == [0.0, 0.02]
        at0, at2 = report.rows
        assert at0.special and at0.integrable and at0.rigid
        assert at0.specialness_defect < 1e-9
        assert not (at2.special or at2.integrable or at2.rigid)
        assert at2.specialness_defect > 0.01
        assert report.all_agree
        assert report.co_vanishing()
        header = report.csv_rows()[0]
        assert header == [
            "epsilon", "specialness_defect", "max_branch_spread", "rigidity_deviation",
            "special", "integrable", "rigid", "agreement",
        ]

    def test_missing_section_is_error(self, tmp_path):
        result = run_scenario(_small_scenario(tmp_path, stages=("dichotomy",)))
        assert result.exit_code == 1
        assert "dichotomy" in result.error
        assert "stages: \n" in (tmp_path / "summary.txt").read_text()

    def test_rows_skip_the_conjugacy_stage_work(self, tmp_path, monkeypatch):
        """A row reads specialness only: no residual, round trip or decay."""

        def refuse(*args, **kwargs):
            raise AssertionError("sweep row started conjugacy-stage work")

        monkeypatch.setattr(ConjugacyEvaluator, "apply_inverse", refuse)
        monkeypatch.setattr(scenarios, "deep_translation_decay", refuse)
        report = dichotomy_sweep("shear_A0", [0.02], _small_scenario(tmp_path))
        assert not report.rows[0].special


class TestRunContext:
    def test_artifacts_are_built_once(self, tmp_path):
        run = RunContext(_small_scenario(tmp_path, fixture="shear_A0", epsilon=0.05))
        assert run.inventory is run.inventory
        assert run.rigidity.inventory is run.inventory
        assert run.specialness.max_defect > 0.0
        assert run.evaluator is run.evaluator

    def test_series_depth_reaches_the_metric_stage(self, tmp_path, monkeypatch):
        seen = []
        real = scenarios.conjugacy_leaf_isometry_check

        def spy(f, ce, psi, **kw):
            seen.append(ce)
            return real(f, ce, psi, **kw)

        monkeypatch.setattr(scenarios, "conjugacy_leaf_isometry_check", spy)
        sc = load_scenario({
            "fixture": {"name": "linear_A0"},
            "depths": {"series": 9, "max_period": 2},
            "sampling": {"points": 8, "pairs": 10, "codes_per_point": 4},
            "tolerances": {"conjugacy_residual": 1e-7},
            "output": str(tmp_path),
            "stages": ["metric"],
        })
        assert run_scenario(sc).exit_code == 0
        assert [ce.series_depth for ce in seen] == [9]

    def test_warm_conjugacy_stage_builds_no_evaluator(self, tmp_path, monkeypatch):
        calls = []
        real = scenarios.conjugacy_evaluator

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios, "conjugacy_evaluator", counting)
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / "cache"))
        sc = _small_scenario(tmp_path / "cold", stages=("conjugacy",))
        run_scenario(sc)
        assert len(calls) == 1
        run_scenario(dataclasses.replace(sc, out_dir=str(tmp_path / "warm")))
        assert len(calls) == 1
        assert _read_outputs(tmp_path / "cold") == _read_outputs(tmp_path / "warm")

    def test_shear_isometry_skipped_non_rigid(self, tmp_path, monkeypatch):
        """The metric stage alone decides that the leaf-isometry check cannot
        run on the shear, and it builds no conjugacy evaluator for it."""

        def refuse(*args, **kwargs):
            raise AssertionError("evaluator built for a skipped check")

        monkeypatch.setattr(scenarios, "conjugacy_evaluator", refuse)
        sc = _small_scenario(tmp_path, fixture="shear_A0", epsilon=0.05, stages=("metric",))
        result = run_scenario(sc)
        assert result.exit_code == 2
        assert "periodic obstruction" in "\n".join(result.findings)
        rows = (tmp_path / "isometry.csv").read_text().splitlines()
        assert rows == ["pair,d_s,linear_distance,scaled_deviation"]
        summary = (tmp_path / "summary.txt").read_text()
        assert "isometry_status: skipped_non_rigid" in summary
        assert "isometry_scale: nan" in summary
        assert "isometry_pairs: 0" in summary
        assert "holonomy_status: skipped_non_rigid" in summary

    def test_holonomy_refused_on_the_runs_own_verdict(self, tmp_path, monkeypatch):
        """The metric stage hands the branches verdict to the holonomy check."""
        sc = _small_scenario(tmp_path, stages=("branches", "metric"))
        run = RunContext(sc)
        verdict = run.integrability
        assert verdict.integrable
        monkeypatch.setattr(
            RunContext, "integrability", dataclasses.replace(verdict, integrable=False)
        )
        outcome = scenarios._STAGE_FN["metric"](RunContext(sc))
        assert ("holonomy_status", "refused_non_integrable") in outcome.summary
        assert any("holonomy refused" in msg for msg in outcome.findings)
