"""Command-line runner: exit codes, reports, determinism, error capture."""

import dataclasses
import hashlib
import json
import warnings

import pytest
import yaml
from click.testing import CliRunner

from polyschro import cli, load_config
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


def test_repeat_runs_are_byte_identical(tmp_path):
    doc = {
        "suites": ["eps_sweep", "parametrix"],
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
    with warnings.catch_warnings():
        # the library keyword stays silent
        warnings.simplefilter("error", FutureWarning)
        run_experiment(cfg, out_dir=str(out1), seed=1, workers=1)
        run_experiment(cfg, out_dir=str(out52), seed=52, workers=1)
    assert (out1 / "report.json").read_bytes() == (out52 / "report.json").read_bytes()
    for name in ("parametrix_residuals.csv", "commutator_bounds.csv"):
        assert (out1 / name).read_bytes() == (out52 / name).read_bytes()
    rows = (out52 / "parametrix_residuals.csv").read_text().splitlines()
    assert rows[0] == "mu,excess,residual"
    assert len(rows) == 1 + 8
    assert _read_report(out52)["suites"]["parametrix"]["passed"] is True


def test_seed_flag_is_rejected(tmp_path):
    """No suite draws random numbers, so there is no --seed flag."""
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["validate", "--output-dir", str(out), "--seed", "5"])
    assert result.exit_code == 2
    assert "No such option '--seed'" in (result.stderr if result.stderr else result.output)
    assert not out.exists()


def test_unknown_family_exits_2_and_names_field(tmp_path):
    cfg = _write_yaml(tmp_path, {"family": "coulomb"})
    result = CliRunner().invoke(
        main, ["validate", "--config", cfg, "--output-dir", str(tmp_path / "o")],
    )
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert "config error" in err_text
    assert "family" in err_text


# selects validate only, with an interaction that two_particle's default rho = 0.1 lies outside
_NARROW_PAIR = {
    "suites": ["validate"],
    "interaction": {"name": "pair", "w": "rho*r^2", "growth_order": 1,
                    "delta": 1.0, "rho_interval": [0.5, 1]},
}


def test_subcommand_suite_is_checked_before_any_suite_runs(tmp_path):
    """A subcommand's suite is checked before any suite runs even when the
    config's suites leave it out: a bad default exits 2 before any report."""
    cfg = _write_yaml(tmp_path, _NARROW_PAIR)
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["two_particle", "--config", cfg, "--output-dir", str(out)])
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert "config error: options.two_particle: rho=0.1 outside" in err_text
    assert not (out / "report.json").exists()


def test_run_experiment_checks_a_suite_outside_the_selection(tmp_path):
    """run_experiment builds the plan of a chosen suite that the config's
    suites leave out, so a bad default raises before any suite runs."""
    cfg = load_config(_write_yaml(tmp_path, _NARROW_PAIR))
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=r"^options\.two_particle: rho=0\.1 outside"):
        run_experiment(cfg, suites=["two_particle"], out_dir=str(out))
    assert not out.exists()


def test_unknown_propagator_key_exits_2(tmp_path):
    cfg = _write_yaml(tmp_path, {"options": {"propagate": {"propagator": {"dtt": 1.0e-3}}},
                                 "suites": ["propagate"]})
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["all", "--config", cfg, "--output-dir", str(out)])
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert "config error: options.propagate.propagator: unknown keys ['dtt']" in err_text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("key", ["propagator", "initial_state"])
def test_retired_top_level_blocks_exit_2(tmp_path, key):
    """A top-level stepper or packet block is an unknown key, also when no
    selected suite propagates."""
    cfg = _write_yaml(tmp_path, {key: {}, "suites": ["validate"]})
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["all", "--config", cfg, "--output-dir", str(out)])
    assert result.exit_code == 2
    assert (result.stderr or result.output) == f"config error: unknown top-level keys ['{key}']\n"
    assert not out.exists()


def test_top_level_rho_outside_family_interval_exits_2(tmp_path):
    cfg = _write_yaml(tmp_path, {"family": "parametric_quartic", "suites": ["validate"]})
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["all", "--config", cfg, "--output-dir", str(out)])
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert "rho: rho=0.0 outside the open interval" in err_text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("options, field", [
    ({"propagate": {"propagator": {"dtt": 1.0e-3}}}, "options.propagate.propagator: "),
    ({"parametrix": {"n_probe": 4}}, "options.parametrix: unknown keys"),
    ({"validate": {"N": 64.5}}, "options.validate.N: N must be a whole number"),
    ({"sensitivity": {"dt": 3.0e-4}}, "options.sensitivity.dt: t_final = 1.0 is not"),
    ({"propagate": {"initial_state": {"width": 0}}},
     "options.propagate.initial_state: width must be a finite positive number, got 0"),
])
def test_bad_suite_options_exit_2(tmp_path, options, field):
    cfg = _write_yaml(tmp_path, {"options": options, "suites": ["propagate", "parametrix"]})
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["all", "--config", cfg, "--output-dir", str(out)])
    assert result.exit_code == 2
    err_text = result.stderr if result.stderr else result.output
    assert field in err_text
    assert not (out / "report.json").exists()


def test_mixed_key_types_exit_2(tmp_path):
    """Unknown keys of mixed int and str type are a config error, not a crash."""
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("1: 2\nx: 3\n")
    result = CliRunner().invoke(main, ["all", "--config", str(cfg),
                                       "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "config error: unknown top-level keys [1, 'x']" in (result.stderr or result.output)


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
    # load_config rejects N = 300; a replaced section makes the suite raise
    cfg = dataclasses.replace(load_config(None), options={
        "two_particle": {"N": 300},
        "validate": {"N": 128},
    })
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


def test_verdicts_surface_boundary_warnings(tmp_path):
    """A packet started near the box edge flags its run and its half-dt run."""
    def propagate_warnings(center, out):
        cfg = load_config(_write_yaml(tmp_path, {
            "family": "harmonic", "grid": {"L": 5.0, "N": 128},
            "suites": ["propagate", "parametrix"],
            "options": {"parametrix": {"N": 64}, "propagate": {
                "propagator": {"dt": 1e-2, "t_final": 0.1, "save_every": 2},
                "initial_state": {"center": center, "width": 0.8, "momentum": 0.5}}},
        }))
        _, report = run_experiment(cfg, out_dir=str(tmp_path / out))
        assert report["suites"]["parametrix"]["warnings"] == []
        return report["suites"]["propagate"]["warnings"]

    edge = propagate_warnings(4.0, "edge")
    assert len(edge) == 2
    assert all(w.startswith("boundary mass") and "later records" in w for w in edge)
    assert propagate_warnings(0.0, "centre") == []


def test_unexpected_error_exits_1(tmp_path, monkeypatch):
    """An error that is not a ConfigError prints its traceback and exits 1."""
    def fail(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "run_experiment", fail)
    result = CliRunner().invoke(main, ["validate", "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "RuntimeError: disk on fire" in (result.stderr or result.output)
