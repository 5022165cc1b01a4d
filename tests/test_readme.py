"""The README's examples run as written, so the docs cannot drift from the code."""

import re
from pathlib import Path

import yaml

from polyschro.config import from_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_quick_start_runs(tmp_path, monkeypatch):
    (code,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header == ("t,l2,norm_a1,norm_a2,boundary_mass,"
                      "solver_iterations,solver_residual")


def test_config_example_loads():
    (block,) = _blocks("yaml")
    cfg = from_mapping(yaml.safe_load(block))
    assert cfg.suite_options("propagate")["propagator"] == {
        "scheme": "lanczos_expmid", "dt": 4.0e-3, "t_final": 1.0}
    assert cfg.suites == ("propagate", "validate")
