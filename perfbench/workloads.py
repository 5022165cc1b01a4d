"""The benchmark's workloads: their inputs, one pass of each, and the
correctness gate applied to a pass's outputs.

Run as a script (``python3 perfbench/workloads.py <workload>``) it does
only the workload's set-up in a fresh process: import, config load, and
grid and handle construction.  ``run.py`` times that process as set-up.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference" / "norm_track.json"

WORKLOADS = ("suites_1d", "two_particle", "norm_track")
SUITES_1D = ("propagate", "eps_sweep", "parametrix", "commutator",
             "sensitivity", "continuity", "validate")

# The tolerances the suites judge by, restated here so that loosening
# them in the program does not loosen the benchmark's gate.
DRIFT_TOL = 1e-7
FACTORIZATION_TOL = 1e-6
GAP_TOL = 1e-3
SLOPE_WINDOW = (-0.65, -0.35)
SUITE_LIMITS = {
    "propagate": {"max_norm_drift": (-math.inf, DRIFT_TOL),
                  "max_norm_drift_half_dt": (-math.inf, DRIFT_TOL)},
    "eps_sweep": {"final_gap": (-math.inf, GAP_TOL)},
    "parametrix": {"slope": SLOPE_WINDOW},
    "two_particle": {"max_norm_drift": (-math.inf, DRIFT_TOL),
                     "factorization_error": (-math.inf, FACTORIZATION_TOL)},
}

# norm_track against its stored reference.  The final norms may move by
# rounding and solver tolerance (1e-11 per step over 1000 steps), far
# below NORM_RTOL.  The l2 drift is itself round-off, about 1e-12, so it
# is compared with an absolute tolerance and the suites' drift limit.
NORM_RTOL = 1e-6
DRIFT_ATOL = 1e-9
NORM_TRACK = {"family": "confined_quartic", "L": 10.0, "N": 512, "dt": 1e-3,
              "t_final": 1.0, "save_every": 5, "norm_orders": (-1, 1, 2, 3)}


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def import_program():
    """Import ``polyschro`` from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    package = src / "polyschro"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {package}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import polyschro

    if Path(polyschro.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"polyschro was imported from {polyschro.__file__}, "
                             f"not from {package}")
    return polyschro


@dataclass
class PassOutput:
    """What one pass produced: the artifact compared across repeats, and
    the gate's checks as (label, passed) pairs."""

    artifact: bytes
    checks: list = field(default_factory=list)


def suite_checks(report: dict, expected) -> list:
    """One check per expected verdict and per judged quantity."""
    checks = [("report lists exactly the expected suites",
               sorted(report.get("suites", {})) == sorted(expected))]
    for suite in expected:
        verdict = report.get("suites", {}).get(suite) or {}
        detail = f": {verdict['error']}" if "error" in verdict else ""
        checks.append((f"{suite} verdict is PASS{detail}", verdict.get("passed") is True))
        for key, (lo, hi) in SUITE_LIMITS.get(suite, {}).items():
            value = verdict.get(key)
            ok = isinstance(value, (int, float)) and lo <= value <= hi
            checks.append((f"{suite}.{key} = {value} within [{lo}, {hi}]", ok))
    return checks


def _suites_pass(config_name: str, expected, seed: int, out_dir: Path) -> PassOutput:
    from polyschro import cli, config

    cfg = config.load_config(str(CONFIGS / config_name))
    _, report = cli.run_experiment(cfg, out_dir=str(out_dir), seed=seed, workers=1)
    return PassOutput((out_dir / "report.json").read_bytes(),
                      suite_checks(report, expected))


# ---------------------------------------------------------------------------
# norm_track


def norm_track_case(seed: int) -> dict:
    """The packet the seed draws, with its stored reference results.

    The reference holds packets drawn once from fixed ranges of center,
    width and momentum (see make_reference.py); the seed picks one.
    """
    cases = json.loads(REFERENCE.read_text())["cases"]
    return cases[int(np.random.default_rng(seed).integers(len(cases)))]


def norm_track_setup(ps, packet: dict):
    """Grid, handle, initial packet and stepper config of one run."""
    p = NORM_TRACK
    grid = ps.make_grid(1, p["L"], p["N"])
    handle = ps.HamiltonianHandle(ps.get_family(p["family"]), grid)
    u0 = ps.gaussian_packet(grid, center=packet["center"], width=packet["width"],
                            momentum=packet["momentum"])
    cfg = ps.PropagatorConfig(dt=p["dt"], t_final=p["t_final"],
                              save_every=p["save_every"])
    return handle, u0, cfg


def norm_track_observe(run) -> dict:
    """The quantities compared with the reference."""
    final = {"0": float(run.data["l2"][-1])}
    for a in NORM_TRACK["norm_orders"]:
        final[str(a)] = float(run.norm_series(a)[-1])
    return {"l2_drift": run.max_norm_drift, "final_norms": final,
            "records": len(run.times)}


def norm_track_checks(seen: dict, ref: dict) -> list:
    drift = seen["l2_drift"]
    checks = [
        (f"l2 drift {drift:.3e} <= {DRIFT_TOL:g}", drift <= DRIFT_TOL),
        (f"l2 drift {drift:.3e} within {DRIFT_ATOL:g} of reference {ref['l2_drift']:.3e}",
         abs(drift - ref["l2_drift"]) <= DRIFT_ATOL),
        (f"{seen['records']} records, reference {ref['records']}",
         seen["records"] == ref["records"]),
    ]
    for a, want in ref["final_norms"].items():
        got = seen["final_norms"].get(a, math.nan)
        checks.append((f"final norm a={a}: {got!r} within rtol {NORM_RTOL:g} of {want!r}",
                       abs(got - want) <= NORM_RTOL * abs(want)))
    return checks


def _norm_track_pass(seed: int, out_dir: Path) -> PassOutput:
    import polyschro as ps

    case = norm_track_case(seed)
    handle, u0, cfg = norm_track_setup(ps, case)
    # looked up on the package at call time, where a tracer wraps it
    run = ps.propagate(cfg, handle, u0, norm_orders=NORM_TRACK["norm_orders"])
    path = out_dir / "norm_track.csv"
    run.to_csv(str(path))
    return PassOutput(path.read_bytes(), norm_track_checks(norm_track_observe(run), case))


# ---------------------------------------------------------------------------
# dispatch


def run_pass(workload: str, seed: int, out_dir: Path) -> PassOutput:
    """One pass of the workload, writing its artifacts under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "suites_1d":
        return _suites_pass("suites_1d.yaml", SUITES_1D, seed, out_dir)
    if workload == "two_particle":
        return _suites_pass("two_particle.yaml", ("two_particle",), seed, out_dir)
    if workload == "norm_track":
        return _norm_track_pass(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def setup(workload: str):
    """Import, config load, and the grids and handles the workload starts from."""
    ps = import_program()
    if workload == "norm_track":
        handle, u0, _ = norm_track_setup(ps, norm_track_case(0))
        return handle.kinetic_multiplier, u0
    from polyschro import config, twoparticle

    cfg = config.load_config(str(CONFIGS / f"{workload}.yaml"))
    if workload == "suites_1d":
        handle = ps.HamiltonianHandle(cfg.family, cfg.grid, rho=cfg.rho)
        return handle.kinetic_multiplier, cfg.grid.mesh
    if workload == "two_particle":
        opts = cfg.suite_options("two_particle")
        grid = ps.make_grid(2, opts.get("L", 10.0), opts.get("N", 128))
        fam = ps.get_family(opts.get("family", "confined_quartic"))
        system = twoparticle.TwoParticleSystem(fam, fam, cfg.interaction, grid)
        handle = twoparticle.TwoParticleHandle(system, rho=opts.get("rho", 0.1))
        return handle.kinetic_multiplier, system.relative_coordinate
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


if __name__ == "__main__":
    setup(sys.argv[1])
