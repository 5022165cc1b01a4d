"""polyschro benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload suites_1d --seed 1 --seconds 30 --trace 0

Each run makes its inputs from --seed, repeats passes of the workload
until --seconds is used up (at least two, so that a pass's artifact can be
compared with a repeat), checks every pass's outputs, and prints as its
last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (median pass wall time,
median fresh-process set-up time, peak resident memory).  With --trace 1
the passes alternate untraced and traced, and the metrics are the
per-layer ones of tracer.layer_metrics, from the median traced pass.
The line before the result is a JSON record of the environment.

Exits 2 without a result when the checkout holds no program.
"""

from __future__ import annotations

import os

# Cap the BLAS and FFT thread pools before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, WORKLOADS, ProgramMissing  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_PASSES = 2
# glibc sysconf names for the cache sizes, which Python's os.sysconf_names
# does not list
SC_LEVEL2_CACHE_SIZE = 191
SC_LEVEL3_CACHE_SIZE = 194


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _sysconf(name: int):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy
    import scipy.fft

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _sysconf(SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _sysconf(SC_LEVEL3_CACHE_SIZE),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "git_commit": _git_commit(),
        "note": ("working sets are cache-resident (1-D state 8 KB, composite "
                 "state 256 KB, Lanczos basis 8 MB), so fft.bytes_computed is "
                 "computed from array sizes and is not a bandwidth figure"),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str) -> list:
    """Wall times of fresh processes that only set the workload up."""
    script = str(workloads.BENCH / "workloads.py")
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, script, workload],
                                stdout=subprocess.DEVNULL)
        # a blocking wait returns as soon as the child exits; wait(timeout)
        # would poll in steps of up to 50 ms, so the timer enforces the limit
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - started)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def timed_pass(workload: str, seed: int, out_dir, tracer=None):
    """Run one pass; return (wall seconds, PassOutput or None, error text)."""
    gc.collect()
    if tracer is not None:
        import polyschro

        try:
            tracing.install_program_wrappers(tracer, polyschro)
        except (KeyError, AttributeError, ImportError):
            # an entry point moved: the tracer needs updating with the program
            tracer.uninstall()
            return 0.0, None, traceback.format_exc()
    started = time.perf_counter()
    try:
        out = workloads.run_pass(workload, seed, out_dir)
        error = None
    except Exception:
        out, error = None, traceback.format_exc()
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
        if out is not None:
            out.checks.append(("every wrapped name restored", tracer.restored()))
    return wall, out, error


class Gate:
    """Counts the operations checked and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def add_pass(self, name: str, out, error, reference: bytes | None):
        if out is None:
            self.check(f"{name} raised:\n{error}", False)
            return
        for label, ok in out.checks:
            self.check(f"{name}: {label}", ok)
        if reference is not None:
            self.check(f"{name}: artifact byte-identical to the first pass's",
                       out.artifact == reference)


def run_passes(args, gate: Gate, traced: bool):
    """Passes until the time budget is used; returns (untraced, traced) walls
    and the tracers of the traced passes."""
    walls, traced_walls, tracers = [], [], []
    reference = None
    budget_start = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        out_dir = WORK / args.workload / f"pass{k}"
        wall, out, error = timed_pass(args.workload, args.seed, out_dir)
        gate.add_pass(f"pass {k}", out, error, reference)
        if out is None:
            break
        walls.append(wall)
        if reference is None:
            reference = out.artifact
        if traced:
            tr = tracing.Tracer()
            wall, out, error = timed_pass(args.workload, args.seed,
                                          WORK / args.workload / f"pass{k}_traced", tr)
            gate.add_pass(f"traced pass {k}", out, error, reference)
            if out is None:
                break
            traced_walls.append(wall)
            tracers.append(tr)
        k += 1
        used = time.perf_counter() - budget_start
        last = time.perf_counter() - round_start
        if k >= (1 if traced else MIN_PASSES) and used + last > args.seconds:
            break
    return walls, traced_walls, tracers


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.import_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    env = environment(args)
    gate = Gate()
    metrics = {}
    if args.trace:
        walls, traced_walls, tracers = run_passes(args, gate, traced=True)
        env["traced_wall_s_samples"] = traced_walls
        if tracers:
            # every per-layer figure comes from one pass, the median traced one
            mid = sorted(range(len(tracers)), key=traced_walls.__getitem__)[(len(tracers) - 1) // 2]
            for key, (value, unit) in tracing.layer_metrics(tracers[mid]).items():
                metrics[key] = _metric(value, unit)
            overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            metrics["trace_overhead_frac"] = _metric(overhead, "frac")
            for i, tr in enumerate(tracers):
                tr.dump(str(WORK / args.workload / f"trace_pass{i}.json"))
        metrics["failed_frac"] = _metric(len(gate.failures) / max(gate.attempted, 1), "frac")
    else:
        try:
            setup_times = measure_setup(args.workload)
        except subprocess.SubprocessError as err:
            setup_times = []
            gate.check(f"set-up process: {err}", False)
        walls, _, _ = run_passes(args, gate, traced=False)
        env["setup_s_samples"] = setup_times
        if walls:
            metrics["wall_s"] = _metric(statistics.median(walls), "s")
        if setup_times:
            metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB")

    env["wall_s_samples"] = walls
    env["failures"] = gate.failures
    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    (WORK / args.workload / "environment.json").write_text(json.dumps(env, indent=1) + "\n")
    for failure in gate.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
