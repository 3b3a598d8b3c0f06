"""Command-line behavior: exit codes, overrides, output listing."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import anosovlab
from anosovlab import scenarios
from anosovlab.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

LINEAR_YAML = """\
fixture:
  name: linear_A0
sampling:
  points: 8
  codes_per_point: 4
  pairs: 10
depths:
  max_period: 2
output: {out}
"""

SWEEP_YAML = """\
fixture:
  name: shear_A0
  epsilon: 0.05
sampling:
  points: 8
  codes_per_point: 4
  pairs: 10
depths:
  max_period: 2
dichotomy:
  family: shear_A0
  epsilons: [0.0, 0.02]
output: {out}
"""

# epsilon large enough that the cone-field check fails
WILD_YAML = """\
fixture: {{name: shear_A0, epsilon: 0.3}}
output: {out}
"""


def _config(tmp_path, template, name="scenario.yaml", out="run"):
    path = tmp_path / name
    path.write_text(template.format(out=tmp_path / out))
    return str(path)


class TestArgs:
    def test_unknown_verb_rejected_by_parser(self, tmp_path):
        cfg = _config(tmp_path, LINEAR_YAML)
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate", "--config", cfg])
        assert exc_info.value.code == 2

    def test_config_flag_required(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze"])
        assert exc_info.value.code == 2

    def test_bad_thread_count(self, tmp_path, capsys):
        cfg = _config(tmp_path, LINEAR_YAML)
        assert main(["analyze", "--config", cfg, "--threads", "0"]) == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-50"])
    def test_negative_seed(self, tmp_path, capsys, seed):
        cfg = _config(tmp_path, LINEAR_YAML)
        assert main(["analyze", "--config", cfg, "--seed", seed]) == 1
        assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
        assert not (tmp_path / "run").exists()

    def test_empty_out(self, tmp_path, monkeypatch, capsys):
        cfg = _config(tmp_path, LINEAR_YAML)
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["analyze", "--config", cfg, "--out", ""]) == 1
        assert capsys.readouterr().err == "config error: --out must be a non-empty path\n"
        assert not any(work.iterdir())
        assert not (tmp_path / "run").exists()

    def test_out_names_a_file(self, tmp_path, capsys):
        cfg = _config(tmp_path, LINEAR_YAML)
        taken = tmp_path / "taken.txt"
        taken.write_text("keep me\n")
        assert main(["analyze", "--config", cfg, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: output directory {taken} exists and is not a directory\n"
        assert taken.read_text() == "keep me\n"

    def test_cache_names_a_file(self, tmp_path, monkeypatch, capsys):
        cfg = _config(tmp_path, LINEAR_YAML)
        cache = tmp_path / "cache.txt"
        cache.write_text("")
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(cache))
        calls = []
        monkeypatch.setitem(scenarios._STAGE_FN, "analyze", lambda run: calls.append(run))
        assert main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: stage cache (ANOSOVLAB_CACHE) {cache} exists and is not a directory\n"
        assert calls == []  # refused before any stage ran
        assert not (tmp_path / "run").exists()


class TestConfigErrors:
    def test_each_problem_gets_a_stderr_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("fixture:\n  name: nope\nseed: -1\nwat: 1\n")
        assert main(["analyze", "--config", str(cfg)]) == 1
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) == 3
        assert all(l.startswith("config error: ") for l in err_lines)

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        absent = tmp_path / "absent.yaml"
        assert main(["analyze", "--config", str(absent)]) == 1
        assert capsys.readouterr().err == f"config error: config file {absent} does not exist\n"
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", "configs/typo.yaml"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: config file configs/typo.yaml does not exist\n"

    def test_one_branch_code_on_the_shear(self, tmp_path, capsys):
        """One code per point would report the shear integrable with zero spread."""
        cfg = _config(tmp_path, SWEEP_YAML.replace("codes_per_point: 4", "codes_per_point: 1"))
        assert main(["branches", "--config", cfg]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: sampling.codes_per_point: must be >= 2")
        assert not (tmp_path / "run").exists()

    def test_fourier_order_that_aliases_on_the_grid(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML.replace("max_period: 2", "max_period: 2\n  fourier_order: 32"))
        assert main(["metric", "--config", cfg]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: depths.fourier_order: must be <= 31")
        assert "64^2 cocycle grid" in line
        assert not (tmp_path / "run").exists()


class TestRunVerbs:
    def test_single_stage_clean(self, tmp_path, capsys):
        cfg = _config(tmp_path, LINEAR_YAML)
        assert main(["analyze", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path / 'run'}/summary.txt" in out
        assert f"wrote {tmp_path / 'run'}/analyze.csv" in out
        assert f"wrote {tmp_path / 'run'}/covering.csv" in out
        assert "finding:" not in out

    def test_all_runs_every_stage(self, tmp_path):
        cfg = _config(tmp_path, LINEAR_YAML)
        assert main(["all", "--config", cfg]) == 0
        produced = {p.name for p in (tmp_path / "run").iterdir()}
        assert {
            "analyze.csv", "certify.csv", "conjugacy.csv", "orbits.csv",
            "branches.csv", "isometry.csv", "summary.txt",
        } <= produced

    def test_out_and_seed_overrides(self, tmp_path, capsys):
        cfg = _config(tmp_path, LINEAR_YAML)
        alt = tmp_path / "elsewhere"
        assert main(["analyze", "--config", cfg, "--out", str(alt), "--seed", "5"]) == 0
        assert (alt / "analyze.csv").exists()
        assert not (tmp_path / "run").exists()
        assert "seed: 5" in (alt / "summary.txt").read_text()
        assert f"wrote {alt}/analyze.csv" in capsys.readouterr().out

    def test_findings_printed_and_exit_two(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML)
        assert main(["conjugacy", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "finding: " in out and "not special" in out

    def test_failed_certificate_is_a_finding(self, tmp_path, capsys):
        cfg = _config(tmp_path, WILD_YAML, name="wild.yaml", out="wild")
        code = main(["certify", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert "finding: " in captured.out and "certification" in captured.out


class TestDichotomyVerb:
    def test_requires_section(self, tmp_path, capsys):
        """One config error line and no output directory, as for any config problem."""
        cfg = _config(tmp_path, LINEAR_YAML)
        assert main(["dichotomy", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: dichotomy: section required for the dichotomy verb\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("family, field", [
        ("custom", "dichotomy.family"),
        ("linear_A0", "dichotomy.epsilons"),
    ])
    def test_unsweepable_family_is_a_config_error(self, tmp_path, capsys, family, field):
        text = SWEEP_YAML.replace("family: shear_A0", f"family: {family}")
        cfg = _config(tmp_path, text)
        assert main(["dichotomy", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_sweep_thread_invariance(self, tmp_path, monkeypatch):
        cfg1 = _config(tmp_path, SWEEP_YAML, name="s1.yaml", out="d1")
        cfg2 = _config(tmp_path, SWEEP_YAML, name="s2.yaml", out="d2")
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / "cache1"))  # both runs compute
        assert main(["dichotomy", "--config", cfg1]) == 0
        monkeypatch.setenv("ANOSOVLAB_CACHE", str(tmp_path / "cache2"))
        assert main(["dichotomy", "--config", cfg2, "--threads", "2"]) == 0
        b1 = (tmp_path / "d1" / "dichotomy.csv").read_bytes()
        b2 = (tmp_path / "d2" / "dichotomy.csv").read_bytes()
        assert b1 == b2


def _scripts_line_target(text):
    """The `anosovlab = "module:attr"` line of the [project.scripts] table."""
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^anosovlab\s*=\s*"([^"]+)"', table, re.M).group(1)


def _script_target():
    """(module, attr) of the declared `anosovlab` console script."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        target = _scripts_line_target(text)
    else:
        target = tomllib.loads(text)["project"]["scripts"]["anosovlab"]
    module, attr = target.split(":")
    return module, attr


def test_scripts_line_matches_toml():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    toml_target = tomllib.loads(text)["project"]["scripts"]["anosovlab"]
    assert _scripts_line_target(text) == toml_target


def test_console_script_installed(tmp_path):
    """The declared command runs as a separate process, with its exit codes.

    A fresh interpreter runs the wrapper that pip generates for the
    [project.scripts] entry, so no install is needed. Where an `anosovlab`
    script is installed on PATH, it must give the same exit code and stdout.
    """
    module, attr = _script_target()
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    opts = _fresh_process_opts(tmp_path)
    installed = shutil.which("anosovlab")

    def run(*argv):
        proc = subprocess.run([sys.executable, "-c", wrapper, *argv], **opts)
        if installed:
            script = subprocess.run([installed, *argv], **opts)
            assert (script.returncode, script.stdout) == (proc.returncode, proc.stdout)
        return proc

    _check_exit_codes(tmp_path, run)


def test_python_m_package(tmp_path):
    """`python -m anosovlab` is the command, as `python -m anosovlab.cli` is."""
    opts = _fresh_process_opts(tmp_path)

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "anosovlab", *argv], **opts)
        cli = subprocess.run([sys.executable, "-m", "anosovlab.cli", *argv], **opts)
        assert (proc.returncode, proc.stdout) == (cli.returncode, cli.stdout)
        return proc

    _check_exit_codes(tmp_path, run)


def test_no_scipy_module_is_loaded(tmp_path):
    """A fresh process that imports the command and builds a map loads no scipy module."""
    config = Path(__file__).resolve().parents[1] / "configs" / "shear.yaml"
    probe = (
        "import sys; import anosovlab.cli; from anosovlab.scenarios import load_scenario; "
        "load_scenario(sys.argv[1]).build_map(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(config)], **_fresh_process_opts(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh_process_opts(tmp_path):
    """subprocess.run options for a fresh interpreter that imports this package."""
    env = dict(os.environ)  # carries the test's own ANOSOVLAB_CACHE
    pkg_root = str(Path(anosovlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return dict(cwd=tmp_path, env=env, capture_output=True, text=True)


def _check_exit_codes(tmp_path, run):
    """Exit 0 when clean, 2 on a finding, 1 on a config error, across the process boundary."""
    clean = run("analyze", "--config", _config(tmp_path, LINEAR_YAML))
    assert clean.returncode == 0, clean.stderr
    assert "wrote" in clean.stdout

    wild = _config(tmp_path, WILD_YAML, name="wild.yaml", out="wild")
    finding = run("certify", "--config", wild)
    assert finding.returncode == 2, finding.stderr
    assert "finding: " in finding.stdout

    missing = run("analyze", "--config", str(tmp_path / "absent.yaml"))
    assert missing.returncode == 1
    assert "config error" in missing.stderr
