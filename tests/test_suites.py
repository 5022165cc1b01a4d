"""Suite bodies at reduced size: verdict keys, files, and judged quantities."""

import csv
import dataclasses
import math
import re

import pytest

from polyschro.config import from_mapping
from polyschro.errors import GridError
from polyschro.propagator import BOUNDARY_TOL, SOLVER_TOL
from polyschro.suites import run_suite

CASES = {
    "continuity": (
        {"N": 64, "t_final": 0.05, "deltas": [0.1, 0.01]},
        {"suite", "passed", "family", "rho", "deltas", "moduli", "warnings", "files"},
        ["moduli"],
        ["continuity_modulus.csv"],
    ),
    "two_particle": (
        {"N": 32, "t_final": 0.02},
        {"suite", "passed", "family", "interaction", "rho", "max_norm_drift",
         "factorization_error", "primed_norm_growth_ratio", "max_wrap_mass", "warnings",
         "files"},
        ["max_norm_drift", "factorization_error", "primed_norm_growth_ratio"],
        ["two_particle_run.csv"],
    ),
    "sensitivity": (
        {"N": 64, "t_final": 0.05, "taus": [0.1, 0.01], "rho_values": [0.5, 1.0]},
        {"suite", "passed", "family", "rho", "taus", "discrepancies", "observed_orders",
         "orders_ok", "quotient_to_variational_ratio", "uniform_quotient_ok", "constants",
         "constant_spread", "constants_stable", "warnings", "files"},
        ["discrepancies", "observed_orders", "quotient_to_variational_ratio", "constants",
         "constant_spread"],
        ["sensitivity_quotients.csv", "sensitivity_constants.csv"],
    ),
}

# CSV columns that must repeat a verdict list: file -> {column: verdict key}
COLUMNS = {
    "continuity_modulus.csv": {"delta": "deltas", "modulus": "moduli"},
    "sensitivity_quotients.csv": {"tau": "taus", "max_discrepancy": "discrepancies"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduced_suite_verdict(name, tmp_path):
    options, keys, judged, files = CASES[name]
    verdict = run_suite(name, from_mapping({"options": {name: options}}), str(tmp_path))
    assert set(verdict) == keys
    assert verdict["suite"] == name
    assert verdict["passed"] is True
    assert verdict["files"] == files
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for key in judged:
        values = verdict[key] if isinstance(verdict[key], list) else [verdict[key]]
        assert values and all(math.isfinite(v) for v in values), key
    assert isinstance(verdict["warnings"], list)
    assert all(isinstance(w, str) for w in verdict["warnings"])
    for file in files:
        with open(tmp_path / file) as fh:
            table = list(csv.DictReader(fh))
        for column, key in COLUMNS.get(file, {}).items():
            assert [float(row[column]) for row in table] == verdict[key], (file, column)


def test_suite_grid_size_must_be_a_whole_number(tmp_path):
    # from_mapping rejects this section at load; the suite must reject it too
    cfg = dataclasses.replace(from_mapping(None), options={"validate": {"N": 64.5}})
    with pytest.raises(GridError, match="N must be a whole number, got 64.5"):
        run_suite("validate", cfg, str(tmp_path))


def test_propagate_takes_a_dt_override(tmp_path):
    """options.propagate.propagator.dt sets the run's step; the half-dt run halves it."""
    cfg = from_mapping({"grid": {"N": 64}, "options": {"propagate": {
        "propagator": {"dt": 1.0e-2, "t_final": 0.02, "save_every": 1}}}})
    verdict = run_suite("propagate", cfg, str(tmp_path))
    for name, steps in (("propagate_run.csv", 2), ("propagate_run_half_dt.csv", 4)):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert len(rows) == steps + 1, name
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.02)
    assert verdict["passed"] is True


def _propagate(tmp_path, mapping=None):
    """The propagate verdict and the rows of its dt and half-dt CSVs."""
    verdict = run_suite("propagate", from_mapping(mapping), str(tmp_path))
    tables = []
    for name in ("propagate_run.csv", "propagate_run_half_dt.csv"):
        with open(tmp_path / name) as fh:
            tables.append(list(csv.DictReader(fh)))
    return verdict, tables


def test_propagate_default_flow(tmp_path):
    """The default L=6, N=256 exponential midpoint flow: no warnings, a time
    error far below Crank-Nicolson's 3e-2, growth ratios that agree at
    dt/2, and one record every 0.02."""
    verdict, (full, half) = _propagate(tmp_path)
    assert verdict["passed"] is True
    assert verdict["warnings"] == []
    assert verdict["time_error_estimate"] <= 1e-4
    ratios, ratios_half = verdict["norm_growth_ratios"], verdict["norm_growth_ratios_half_dt"]
    assert sorted(ratios) == sorted(ratios_half) == ["a1", "a2"]
    for key, ratio in ratios.items():
        assert abs(ratios_half[key] - ratio) <= 1e-4, key
    assert all(float(row["solver_residual"]) <= SOLVER_TOL for row in full + half)
    assert (len(full), len(half)) == (51, 101)
    assert float(full[1]["t"]) == pytest.approx(0.02)


def test_propagate_boundary_mass_covers_both_runs(tmp_path):
    """max_boundary_mass is the larger of the two runs', like the warnings.
    Here the half-dt run records the packet nearer the edge than the dt run."""
    verdict, tables = _propagate(tmp_path, {
        "family": "harmonic", "grid": {"L": 5.0, "N": 64}, "options": {"propagate": {
            "propagator": {"scheme": "lanczos_expmid", "dt": 0.1, "t_final": 0.2,
                           "save_every": 1},
            "initial_state": {"center": 4.0, "momentum": 0.5}}}})
    full, half = (max(float(row["boundary_mass"]) for row in rows) for rows in tables)
    assert half > full
    assert verdict["max_boundary_mass"] == max(full, half)
    assert len(verdict["warnings"]) == 2


def test_propagate_config_scheme_overrides_default(tmp_path):
    """A propagator option's scheme replaces the suite's exponential midpoint
    rule: a t-free family's Crank-Nicolson steps go through one dense
    Cayley inverse, so each row's step counts 1 and reports its defect."""
    prop = {"scheme": "crank_nicolson_midpoint", "dt": 1.0e-2, "t_final": 0.05,
            "save_every": 1}
    verdict, tables = _propagate(tmp_path, {"family": "harmonic", "grid": {"N": 64},
                                            "options": {"propagate": {"propagator": prop}}})
    assert verdict["passed"] is True
    for rows in tables:
        assert [int(row["solver_iterations"]) for row in rows[1:]] == [1] * (len(rows) - 1)
        defects = {row["solver_residual"] for row in rows[1:]}
        assert len(defects) == 1 and 0.0 < float(defects.pop()) <= SOLVER_TOL
    assert (len(tables[0]), len(tables[1])) == (6, 11)


def _two_particle(tmp_path, **options):
    """The two_particle verdict and its CSV rows, for options over the defaults."""
    verdict = run_suite("two_particle", from_mapping({"options": {"two_particle": options}}),
                        str(tmp_path))
    with open(tmp_path / "two_particle_run.csv") as fh:
        return verdict, list(csv.DictReader(fh))


def test_two_particle_default_box_warns_of_nothing(tmp_path):
    """On the default L=6, N=128 box neither flow wraps, nears the edge
    or caps a Lanczos step."""
    verdict, rows = _two_particle(tmp_path, t_final=0.02)
    assert verdict["passed"] is True
    assert verdict["warnings"] == []
    assert 0.0 < verdict["max_wrap_mass"] < BOUNDARY_TOL
    assert [float(row["t"]) for row in rows] == [0.0, 0.02]
    assert all(float(row["solver_residual"]) <= SOLVER_TOL for row in rows)


def test_two_particle_small_box_warns_of_wrap_mass(tmp_path):
    """At L=4 the packets' relative coordinate reaches the wrap at |x1 - x2| = L."""
    verdict, rows = _two_particle(tmp_path, L=4.0, N=32, t_final=0.1)
    wrap_lines = [w for w in verdict["warnings"] if w.startswith("wrap mass")]
    assert verdict["max_wrap_mass"] > BOUNDARY_TOL
    assert len(wrap_lines) == 1
    assert re.fullmatch(r"wrap mass \d\.\d{3}e-\d\d above 1e-06 at t=0 \(and 2 later records\)",
                        wrap_lines[0])
    # one record every 25 steps of the default dt
    assert [float(row["t"]) for row in rows] == pytest.approx([0.0, 0.05, 0.1])
    assert verdict["passed"] is True
