"""Spans and counters around the program's public entry points.

The program under ``src/`` knows nothing about tracing.  A ``Tracer``
installs wrappers on the names where the program looks its collaborators
up (module globals, class attributes, ``scipy.fft`` attributes), records
one span per call, and puts every original back when it is uninstalled.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, by ``dump``, when the benchmark ends.  The
program runs single-threaded, so spans nest strictly and the children of
one span never overlap.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter

import numpy as np
import scipy.fft

# Every layer name a span may start with; the per-layer metrics are
# reported for all of them on every workload, 0 where a layer is unused.
LAYERS = ("cli", "report", "io", "suites", "sensitivity", "propagator",
          "operators", "twoparticle", "symbols", "potentials", "fft")

SUITES = ("propagate", "eps_sweep", "parametrix", "commutator", "sensitivity",
          "continuity", "two_particle", "validate")

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn")
COMPLEX_BYTES = 16


class Tracer:
    """Records spans for every call through the wrappers it installed."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def label_id(self, label: str) -> int:
        nid = self._label_ids.get(label)
        if nid is None:
            nid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def wrap(self, owner, attr: str, label, before=None, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``label`` is the span name, or a function of the call's positional
        arguments that returns it.  ``before(args, kwargs)`` may return new
        (args, kwargs); ``after(args, kwargs, result)`` sees the result.
        Both run outside the span's interval.
        """
        original = vars(owner)[attr]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        fixed = None if callable(label) else self.label_id(label)
        label_id = self.label_id

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            name.append(fixed if fixed is not None else label_id(label(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def uninstall(self):
        """Put every wrapped name back, newest first."""
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every name this tracer wrapped holds its original again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self.installed)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path: str):
        """Write the spans as JSON: labels plus one column per span field."""
        doc = {
            "labels": self.labels,
            "columns": ["name", "start", "end", "parent"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install_program_wrappers(tracer: Tracer, ps):
    """Wrap the program's entry points on every name it calls them by.

    ``ps`` is the imported ``polyschro`` package.
    """
    from polyschro import (cli, config, operators, potentials, propagator,
                           sensitivity, suites, symbols, twoparticle)

    counts = tracer.counts

    def count(key):
        def hook(args, kwargs, result):
            counts[key] += 1
        return hook

    def count_steps(args, kwargs, run):
        counts["propagator.steps"] += run.cfg.n_steps

    def count_gmres_iters(args, kwargs):
        inner = kwargs.get("callback")

        def callback(res):
            counts["propagator.gmres_iters"] += 1
            if inner is not None:
                inner(res)

        return args, {**kwargs, "callback": callback}

    def count_cg_iters(args, kwargs, result):
        counts["operators.cg_iters"] += result[1]

    def count_fft_points(args, kwargs):
        size = np.size(args[0])
        counts["fft.points"] += size
        counts["fft.bytes"] += 2 * COMPLEX_BYTES * size
        return args, kwargs

    def count_csv(args, kwargs, result):
        counts["io.bytes_written"] += os.path.getsize(os.path.join(args[0], result))

    def count_to_csv(args, kwargs, result):
        counts["io.bytes_written"] += os.path.getsize(args[1])

    w = tracer.wrap
    # command line, config and report
    w(cli, "run_experiment", "cli.run_experiment")
    w(config, "load_config", "cli.load_config")
    w(cli, "emit_report", "report.emit_report")
    w(cli, "run_suite", lambda a: f"suites.{a[0]}")
    w(suites, "_write_csv", "io.write_csv", after=count_csv)
    w(propagator.PropagationRun, "to_csv", "io.to_csv", after=count_to_csv)
    # sensitivity entry points, as the suites call them
    for fn in ("sensitivity_sweep", "solve_variational", "continuity_modulus"):
        w(suites, fn, f"sensitivity.{fn}")
    # the stepper, on every module that calls it, plus the library API
    for owner in (ps, suites, sensitivity, twoparticle):
        w(owner, "propagate", "propagator.propagate", after=count_steps)
    w(sensitivity, "propagate_inhomogeneous", "propagator.propagate_inhomogeneous",
      after=count_steps)
    w(propagator, "gmres", "propagator.gmres", before=count_gmres_iters)
    w(propagator, "solve_hermitian_cg", "propagator.cg_fallback")
    # single-particle operators and norms
    H = operators.HamiltonianHandle
    w(H, "apply", "operators.apply")
    w(H, "apply_mollified", "operators.apply_mollified")
    w(H, "apply_rho_derivative", "operators.apply_rho_derivative")
    w(operators, "weighted_norm", "operators.weighted_norm")
    w(operators, "solve_hermitian_cg", "operators.solve_hermitian_cg", after=count_cg_iters)
    w(operators, "eval_potential", "potentials.eval_potential",
      after=count("operators.potential_evals"))
    # composite operator and primed norms
    w(twoparticle.TwoParticleHandle, "apply", "twoparticle.apply")
    w(twoparticle, "weighted_norm_primed", "twoparticle.weighted_norm_primed")
    I = potentials.InteractionFamily
    w(I, "on", "potentials.interaction_on", after=count("twoparticle.field_evals"))
    w(I, "rho_partial_on", "potentials.interaction_rho_partial_on",
      after=count("twoparticle.field_evals"))
    # symbol quantization, where the operators and the probes call it
    for owner in (operators, symbols):
        w(owner, "quantize_symbol", "symbols.quantize_symbol")
        w(owner, "adjoint_quantize_symbol", "symbols.adjoint_quantize_symbol")
    w(symbols, "eval_potential", "potentials.eval_potential")
    # growth validators
    w(suites, "validate_assumption", "potentials.validate_assumption")
    w(suites, "validate_interaction", "potentials.validate_interaction")
    # FFT traffic: every module reaches scipy.fft through its attributes
    for fn in FFT_FUNCTIONS:
        w(scipy.fft, fn, f"fft.{fn}", before=count_fft_points)


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanTable:
    """Numpy view of a tracer's spans, with per-span self time."""

    def __init__(self, tracer: Tracer):
        self.labels = tracer.labels
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.start = np.frombuffer(tracer.start)
        self.end = np.frombuffer(tracer.end)
        self.dur = self.end - self.start
        has_parent = parent >= 0
        # children of one span run one after another, so their summed
        # durations are the part of the parent's interval they cover
        cover = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - cover

    def mask(self, prefix: str) -> np.ndarray:
        """Spans whose label equals prefix or starts with prefix + '.'."""
        ids = [i for i, lab in enumerate(self.labels)
               if lab == prefix or lab.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Indices of the spans in mask that no other span in mask encloses.

        Spans are stored in start order and nest strictly, so a span is
        enclosed exactly when it starts before an earlier one has ended.
        """
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            return idx
        open_until = np.maximum.accumulate(self.end[idx])
        enclosed = np.zeros(len(idx), dtype=bool)
        enclosed[1:] = self.start[idx[1:]] < open_until[:-1]
        return idx[~enclosed]

    def busy(self, mask: np.ndarray) -> float:
        """Wall time covered by spans in mask, nested ones counted once."""
        return float(self.dur[self.outermost(mask)].sum())

    def count_within(self, mask: np.ndarray, outer: np.ndarray) -> int:
        """Number of spans in mask that lie inside a span of outer."""
        top = self.outermost(outer)
        starts = self.start[mask]
        if len(top) == 0 or len(starts) == 0:
            return 0
        pos = np.searchsorted(self.start[top], starts, side="right") - 1
        inside = (pos >= 0) & (starts < self.end[top][np.maximum(pos, 0)])
        return int(inside.sum())


def _percentile_us(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q) * 1e6) if len(durations) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t = SpanTable(tracer)
    c = tracer.counts
    m = {}
    for suite in SUITES:
        m[f"suites.{suite}.busy_s"] = (t.busy(t.mask(f"suites.{suite}")), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (float(t.self_time[t.mask(layer)].sum()), "s")

    steps = c["propagator.steps"]
    steppers = t.mask("propagator.propagate") | t.mask("propagator.propagate_inhomogeneous")
    prop_busy = t.busy(steppers)
    gmres = t.mask("propagator.gmres")
    gmres_calls = int(gmres.sum())
    m["propagator.steps"] = (steps, "count")
    m["propagator.busy_s"] = (prop_busy, "s")
    m["propagator.step_us"] = (_ratio(prop_busy, steps) * 1e6, "us")
    m["propagator.gmres_calls"] = (gmres_calls, "count")
    m["propagator.gmres_iters_per_step"] = (_ratio(c["propagator.gmres_iters"], gmres_calls), "count")
    m["propagator.gmres_busy_s"] = (t.busy(gmres), "s")
    m["propagator.cg_fallbacks"] = (int(t.mask("propagator.cg_fallback").sum()), "count")

    apply1 = t.mask("operators.apply")
    apply2 = t.mask("twoparticle.apply")
    apply_calls = int(apply1.sum())
    m["operators.apply_calls"] = (apply_calls, "count")
    m["operators.apply_busy_s"] = (t.busy(apply1), "s")
    m["operators.apply_us.p50"] = (_percentile_us(t.dur[apply1], 50), "us")
    m["operators.apply_us.p99"] = (_percentile_us(t.dur[apply1], 99), "us")
    m["operators.applies_per_step"] = (_ratio(t.count_within(apply1 | apply2, steppers), steps), "count")
    m["operators.potential_evals"] = (c["operators.potential_evals"], "count")
    m["operators.potential_cache_miss_ratio"] = (_ratio(c["operators.potential_evals"], apply_calls), "ratio")
    norms = t.mask("operators.weighted_norm")
    m["operators.norm_calls"] = (int(norms.sum()), "count")
    m["operators.norm_busy_s"] = (t.busy(norms), "s")
    m["operators.cg_iters"] = (c["operators.cg_iters"], "count")

    m["twoparticle.apply_calls"] = (int(apply2.sum()), "count")
    m["twoparticle.apply_busy_s"] = (t.busy(apply2), "s")
    m["twoparticle.apply_us.p50"] = (_percentile_us(t.dur[apply2], 50), "us")
    m["twoparticle.apply_us.p99"] = (_percentile_us(t.dur[apply2], 99), "us")
    m["twoparticle.norm_busy_s"] = (t.busy(t.mask("twoparticle.weighted_norm_primed")), "s")
    m["twoparticle.field_evals"] = (c["twoparticle.field_evals"], "count")

    ffts = t.mask("fft")
    fft_calls = int(ffts.sum())
    m["fft.calls"] = (fft_calls, "count")
    m["fft.busy_s"] = (t.busy(ffts), "s")
    m["fft.points_per_call"] = (_ratio(c["fft.points"], fft_calls), "points")
    m["fft.bytes_computed"] = (c["fft.bytes"], "B")

    quant = t.mask("symbols.quantize_symbol") | t.mask("symbols.adjoint_quantize_symbol")
    m["symbols.quantize_calls"] = (int(quant.sum()), "count")
    m["symbols.quantize_busy_s"] = (t.busy(quant), "s")

    validators = t.mask("potentials.validate_assumption") | t.mask("potentials.validate_interaction")
    m["potentials.validate_busy_s"] = (t.busy(validators), "s")
    m["report.emit_busy_s"] = (t.busy(t.mask("report.emit_report")), "s")
    m["io.csv_busy_s"] = (t.busy(t.mask("io")), "s")
    m["io.bytes_written"] = (c["io.bytes_written"], "B")
    m["trace.spans"] = (len(t.dur), "count")
    return m
