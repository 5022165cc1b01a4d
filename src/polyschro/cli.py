"""Command-line experiment runner.

One subcommand per verification suite plus `all`; every subcommand takes
the same config/output/worker flags.  Exit code 0 means every selected
suite passed, 1 means at least one failed, and 2 means the
configuration did not validate.
"""

from __future__ import annotations

import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

import click

from .config import SUITE_NAMES, ExperimentConfig, check_plan, load_config
from .errors import ConfigError
from .report import emit_report
from .suites import run_suite, suite_function


def run_experiment(cfg: ExperimentConfig, suites=None, out_dir=None,
                   seed=None, workers: int = 1) -> tuple:
    """Run the selected suites, emit the report, and return (exit_code, report).

    `seed` is accepted and ignored without a warning: no suite draws
    random numbers, and perfbench/workloads.py still passes it.  A suite
    that raises is recorded as a failed verdict with the error message;
    it never aborts its siblings.
    """
    chosen = tuple(suites) if suites else cfg.suites
    for name in chosen:  # an unknown name or a rejected plan raises before any suite runs
        suite_function(name)
        if name not in cfg.suites:  # loading built the plans of cfg.suites only
            check_plan(cfg, name)
    out_dir = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)

    def job(name):
        try:
            return run_suite(name, cfg, out_dir)
        except Exception as err:
            return {
                "suite": name,
                "passed": False,
                "error": f"{type(err).__name__}: {err}",
                "warnings": [],
                "files": [],
            }

    if workers > 1 and len(chosen) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(job, chosen))
    else:
        verdicts = [job(name) for name in chosen]

    report = emit_report(verdicts, out_dir)
    return (0 if report["passed"] else 1), report


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="YAML experiment config; defaults apply when omitted.")(fn)
    fn = click.option("--output-dir", type=click.Path(), default=None,
                      help="Artifact directory (overrides the config).")(fn)
    fn = click.option("--workers", type=int, default=1, show_default=True,
                      help="Concurrent suite jobs.")(fn)
    return fn


def _execute(config_path, output_dir, workers, suites):
    try:
        cfg = load_config(config_path)
        code, report = run_experiment(cfg, suites=suites, out_dir=output_dir,
                                      workers=workers)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    for name, verdict in report["suites"].items():
        status = "PASS" if verdict["passed"] else "FAIL"
        detail = verdict.get("error", "")
        click.echo(f"{name}: {status}" + (f" ({detail})" if detail else ""))
    sys.exit(code)


@click.group()
def main():
    """Verification experiments for the confined Schrodinger solver."""


def _make_suite_command(suite_name: str):
    @main.command(name=suite_name, help=f"Run the {suite_name} suite.")
    @_common_options
    def _cmd(config_path, output_dir, workers):
        _execute(config_path, output_dir, workers, suites=(suite_name,))

    return _cmd


for _name in SUITE_NAMES:
    _make_suite_command(_name)


@main.command(name="all", help="Run every suite selected by the config.")
@_common_options
def _all(config_path, output_dir, workers):
    _execute(config_path, output_dir, workers, suites=None)


if __name__ == "__main__":
    main()
