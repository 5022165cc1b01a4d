"""Tests of the benchmark itself: the tracer's counts, its clean removal,
and the correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest
import scipy.fft

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ps = workloads.import_program()
from polyschro import cli, config, operators, suites  # noqa: E402

KRYLOV = 4
STEPS = 3


def _tiny_lanczos_run():
    """Harmonic flow on N=32: a fixed Krylov size and no magnetic term, so
    every step makes KRYLOV applies and every apply one FFT pair."""
    grid = ps.make_grid(1, 5.0, 32)
    handle = ps.HamiltonianHandle(ps.get_family("harmonic"), grid)
    u0 = ps.gaussian_packet(grid, center=0.5, width=1.0, momentum=0.3)
    cfg = ps.PropagatorConfig(scheme="lanczos_expmid", dt=0.01, t_final=0.01 * STEPS,
                              save_every=STEPS, keep_states=False, krylov_dim=KRYLOV)
    return ps.propagate(cfg, handle, u0)


def test_wrappers_count_applies_and_ffts():
    tr = tracing.Tracer()
    tracing.install_program_wrappers(tr, ps)
    try:
        _tiny_lanczos_run()
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr)
    assert m["propagator.steps"][0] == STEPS
    assert m["operators.apply_calls"][0] == STEPS * KRYLOV
    assert m["operators.applies_per_step"][0] == KRYLOV
    assert m["fft.calls"][0] == 2 * STEPS * KRYLOV
    assert m["fft.points_per_call"][0] == 32
    assert m["fft.bytes_computed"][0] == 2 * STEPS * KRYLOV * 32 * 2 * 16
    assert m["propagator.gmres_calls"][0] == 0
    # the apply spans lie inside the propagate span, the FFTs inside the applies
    assert m["propagator.busy_s"][0] >= m["operators.apply_busy_s"][0] >= m["fft.busy_s"][0] > 0


def test_wrappers_are_removed_and_results_unchanged():
    originals = {
        "apply": vars(operators.HamiltonianHandle)["apply"],
        "fft": vars(scipy.fft)["fft"],
        "propagate": vars(suites)["propagate"],
        "run_suite": vars(cli)["run_suite"],
    }
    plain = _tiny_lanczos_run().final.values
    with tracing.Tracer() as tr:
        tracing.install_program_wrappers(tr, ps)
        assert vars(operators.HamiltonianHandle)["apply"] is not originals["apply"]
        traced = _tiny_lanczos_run().final.values
    assert tr.restored()
    assert vars(operators.HamiltonianHandle)["apply"] is originals["apply"]
    assert vars(scipy.fft)["fft"] is originals["fft"]
    assert vars(suites)["propagate"] is originals["propagate"]
    assert vars(cli)["run_suite"] is originals["run_suite"]
    assert (plain == traced).all()


def test_self_time_excludes_children_and_busy_counts_nesting_once():
    owner = types.SimpleNamespace()
    owner.inner = lambda: sum(range(20000))
    owner.outer = lambda: [owner.inner(), owner.inner()]
    tr = tracing.Tracer()
    tr.wrap(owner, "inner", "operators.inner")
    tr.wrap(owner, "outer", "operators.outer")
    tr.wrap(owner, "outer", "operators.outer_again")  # the same layer, nested
    owner.outer()
    tr.uninstall()
    t = tracing.SpanTable(tr)
    assert len(t.dur) == 4
    outer_again, outer, inner1, inner2 = range(4)
    assert t.self_time[outer] == pytest.approx(t.dur[outer] - t.dur[inner1] - t.dur[inner2])
    assert t.busy(t.mask("operators")) == pytest.approx(t.dur[outer_again])
    assert t.count_within(t.mask("operators.inner"), t.mask("operators.outer")) == 2


def _report(tmp_path, seed=3):
    cfg = config.from_mapping({"suites": ["parametrix", "commutator"]})
    _, report = cli.run_experiment(cfg, out_dir=str(tmp_path), seed=seed, workers=1)
    return report


def test_gate_passes_a_passing_report(tmp_path):
    checks = workloads.suite_checks(_report(tmp_path), ("parametrix", "commutator"))
    assert checks and all(ok for _, ok in checks)


def test_gate_fails_a_forced_failing_verdict(tmp_path, monkeypatch):
    real = suites._SUITE_FUNCTIONS["commutator"]
    monkeypatch.setitem(suites._SUITE_FUNCTIONS, "commutator",
                        lambda *a: {**real(*a), "passed": False})
    checks = workloads.suite_checks(_report(tmp_path), ("parametrix", "commutator"))
    failed = [label for label, ok in checks if not ok]
    assert failed == ["commutator verdict is PASS"]

    gate = run.Gate()
    gate.add_pass("pass 0", workloads.PassOutput(b"", checks), None, None)
    assert gate.failures == ["pass 0: commutator verdict is PASS"]
    assert gate.attempted == len(checks)


def test_gate_fails_a_judged_quantity_outside_its_limit(tmp_path):
    report = _report(tmp_path)
    report["suites"]["parametrix"]["slope"] = -0.2
    checks = workloads.suite_checks(report, ("parametrix", "commutator"))
    assert [label for label, ok in checks if not ok] == [
        "parametrix.slope = -0.2 within [-0.65, -0.35]"]


def test_gate_fails_a_differing_repeat_and_a_raising_pass():
    gate = run.Gate()
    gate.add_pass("pass 1", workloads.PassOutput(b"b", []), None, reference=b"a")
    gate.add_pass("pass 2", None, "Traceback ...", reference=b"a")
    assert gate.attempted == 2
    assert len(gate.failures) == 2


def test_norm_track_gate_against_reference():
    case = workloads.norm_track_case(0)
    assert all(ok for _, ok in workloads.norm_track_checks(case, case))
    off = {**case, "final_norms": {**case["final_norms"], "2": case["final_norms"]["2"] * 1.001}}
    failed = [label for label, ok in workloads.norm_track_checks(off, case) if not ok]
    assert len(failed) == 1 and failed[0].startswith("final norm a=2")


def test_norm_track_seed_picks_a_stored_case():
    assert workloads.norm_track_case(5) == workloads.norm_track_case(5)
    picks = {workloads.norm_track_case(s)["center"] for s in range(40)}
    assert len(picks) > 1
