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
    cfg = from_mapping({"grid": {"N": 64}, "propagator": {"t_final": 0.02},
                        "options": {"propagate": {"propagator": {"dt": 1.0e-2, "save_every": 1}}}})
    verdict = run_suite("propagate", cfg, str(tmp_path))
    for name, steps in (("propagate_run.csv", 2), ("propagate_run_half_dt.csv", 4)):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert len(rows) == steps + 1, name
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.02)
    assert verdict["passed"] is True


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
