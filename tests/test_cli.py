"""Command-line runner: exit codes, reports, determinism, error capture."""

import hashlib
import json

import pytest
import yaml
from click.testing import CliRunner

from polyschro import load_config
from polyschro.cli import main, run_experiment
from polyschro.errors import ConfigError


def _write_yaml(tmp_path, doc, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_validate_subcommand_passes(tmp_path):
    out = tmp_path / "out"
    cfg = _write_yaml(tmp_path, {"options": {"validate": {"N": 128}}})
    result = CliRunner().invoke(
        main, ["validate", "--config", cfg, "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "validate: PASS" in result.output
    report = _read_report(out)
    assert set(report) == {"passed", "suites", "files"}
    assert report["passed"] is True
    assert report["suites"]["validate"]["passed"] is True
    assert "validate_bounds.csv" in report["files"]


def test_report_manifest_hashes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write_yaml(tmp_path, {"options": {"validate": {"N": 128}}})
    result = CliRunner().invoke(
        main, ["validate", "--config", cfg, "--output-dir", str(out)],
    )
    assert result.exit_code == 0
    report = _read_report(out)
    for name, digest in report["files"].items():
        payload = (out / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_same_seed_runs_are_byte_identical(tmp_path):
    doc = {
        "suites": ["eps_sweep", "parametrix"],
        "seed": 424242,
        "options": {
            "eps_sweep": {"N": 64, "t_final": 0.05, "dt": 2.5e-3,
                          "eps_values": [1.0, 0.5]},
            "parametrix": {"N": 64},
        },
    }
    cfg = load_config(_write_yaml(tmp_path, doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_experiment(cfg, out_dir=str(out1), workers=1)
    run_experiment(cfg, out_dir=str(out2), workers=1)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    report = _read_report(out1)
    for name in report["files"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_outputs_do_not_depend_on_the_seed(tmp_path):
    cfg = load_config(_write_yaml(tmp_path, {"suites": ["parametrix", "commutator"]}))
    out1, out52 = tmp_path / "seed1", tmp_path / "seed52"
    run_experiment(cfg, out_dir=str(out1), seed=1, workers=1)
    run_experiment(cfg, out_dir=str(out52), seed=52, workers=1)
    assert (out1 / "report.json").read_bytes() == (out52 / "report.json").read_bytes()
    for name in ("parametrix_residuals.csv", "commutator_bounds.csv"):
        assert (out1 / name).read_bytes() == (out52 / name).read_bytes()
    rows = (out52 / "parametrix_residuals.csv").read_text().splitlines()
    assert rows[0] == "mu,excess,residual"
    assert len(rows) == 1 + 8
    assert _read_report(out52)["suites"]["parametrix"]["passed"] is True


def test_unknown_family_exits_2_and_names_field(tmp_path):
    cfg = _write_yaml(tmp_path, {"family": "coulomb"})
    result = CliRunner().invoke(
        main, ["validate", "--config", cfg, "--output-dir", str(tmp_path / "o")],
    )
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert "config error" in err_text
    assert "family" in err_text


def test_unknown_propagator_key_exits_2(tmp_path):
    cfg = _write_yaml(tmp_path, {"propagator": {"dtt": 1.0e-3}, "suites": ["propagate"]})
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["all", "--config", cfg, "--output-dir", str(out)])
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert "propagator: " in err_text and "dtt" in err_text
    assert not (out / "report.json").exists()


def test_failing_suite_exits_1(tmp_path):
    # reversed offsets make the continuity curve non-decreasing on purpose
    doc = {
        "options": {
            "continuity": {"N": 64, "dt": 1e-2, "t_final": 0.1,
                           "deltas": [1e-3, 1e-1]},
        },
    }
    cfg = _write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["continuity", "--config", cfg, "--output-dir", str(out)],
    )
    assert result.exit_code == 1
    assert "continuity: FAIL" in result.output
    report = _read_report(out)
    assert report["passed"] is False
    assert report["suites"]["continuity"]["passed"] is False


def test_suite_error_is_recorded_without_aborting_siblings(tmp_path):
    cfg = load_config(_write_yaml(tmp_path, {
        "options": {
            "two_particle": {"N": 300},
            "validate": {"N": 128},
        },
    }))
    out = tmp_path / "out"
    code, report = run_experiment(
        cfg, suites=("two_particle", "validate"), out_dir=str(out),
    )
    assert code == 1
    broken = report["suites"]["two_particle"]
    assert broken["passed"] is False
    assert "GridError" in broken["error"]
    assert report["suites"]["validate"]["passed"] is True


def test_all_subcommand_respects_config_selection(tmp_path):
    cfg = _write_yaml(tmp_path, {
        "suites": ["validate"],
        "options": {"validate": {"N": 128}},
    })
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["all", "--config", cfg, "--output-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = _read_report(out)
    assert list(report["suites"]) == ["validate"]


def test_parallel_workers_match_serial(tmp_path):
    doc = {
        "suites": ["continuity", "validate"],
        "options": {
            "continuity": {"N": 64, "dt": 1e-2, "t_final": 0.1,
                           "deltas": [1e-1, 1e-2]},
            "validate": {"N": 128},
        },
    }
    cfg = load_config(_write_yaml(tmp_path, doc))
    serial, threaded = tmp_path / "s", tmp_path / "p"
    code_s, _ = run_experiment(cfg, out_dir=str(serial), workers=1)
    code_p, _ = run_experiment(cfg, out_dir=str(threaded), workers=2)
    assert code_s == code_p == 0
    assert (serial / "report.json").read_bytes() == (threaded / "report.json").read_bytes()


def test_unknown_suite_name_rejected(tmp_path):
    cfg = load_config(None)
    with pytest.raises(ConfigError, match="spectra"):
        run_experiment(cfg, suites=("spectra",), out_dir=str(tmp_path / "o"))


def test_missing_config_file_exits_2(tmp_path):
    result = CliRunner().invoke(
        main, ["validate", "--config", str(tmp_path / "nope.yaml")],
    )
    assert result.exit_code == 2
