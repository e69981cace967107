"""Outside-in tracing: spans and counters around the library's public functions.

Nothing in ``src/`` knows about tracing.  :func:`instrument` replaces a
function at the module attribute its caller looks up (for example
``resilest.plant.estimator_step``, which ``simulate`` calls) with a wrapper
that records a span or bumps a counter, and puts the original back on exit.
A site whose name no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# (module, attribute path, span name); the span name carries the unit its
# durations are reported in.  One span name may cover several call sites.
SPAN_SITES = [
    ("resilest.analysis", "stacked_cospark", "analysis.stacked_cospark_s"),
    ("resilest.analysis", "robustness_constants", "analysis.robustness_constants_s"),
    ("resilest.estimator", "robustness_constants", "analysis.robustness_constants_s"),
    ("resilest.analysis", "is_q_error_detectable", "analysis.is_q_error_detectable_s"),
    ("resilest.plant", "compute_error_bounds", "observers.compute_error_bounds_s"),
    ("resilest.plant", "build_observer_bank", "plant.build_observer_bank_s"),
    ("resilest.estimator", "observer_step", "observers.observer_step_us"),
    ("resilest.plant", "estimator_step", "estimator.step_us"),
    ("resilest.plant", "decoder_step", "estimator.decoder_step_us"),
    ("resilest.estimator", "decoder_step", "estimator.decoder_step_us"),
    ("resilest.plant", "pad_observer_outputs", "estimator.pad_us"),
    ("resilest.estimator", "pad_observer_outputs", "estimator.pad_us"),
    ("resilest.estimator", "decode_noisy", "decoding.search_ms"),
    ("resilest.plant", "Scenario.validate", "plant.validate_s"),
    ("resilest.plant", "simulate", "plant.simulate_s"),
    ("resilest.cli", "simulate", "plant.simulate_s"),
    ("resilest.cli", "write_trace_csv", "files.write_trace_csv_s"),
    ("resilest.cli", "load_scenario", "files.load_scenario_s"),
    ("resilest.cli", "write_svg_plot", "plots.write_svg_plot_s"),
]

# (module, attribute path, counter name, weight of one call's result)
COUNT_SITES = [
    ("resilest.analysis", "matrix_rank", "analysis.rank_checks", None),
    ("resilest.analysis", "pinv", "analysis.pinv_calls", None),
    ("resilest.analysis", "sigma_min", "analysis.sigma_min_calls", None),
    ("resilest.decoding", "matrix_rank", "decoding.rank_checks", None),
    ("resilest.decoding", "candidate_set", "decoding.candidates", len),
    ("resilest.estimator", "pinv", "estimator.pinv_calls", None),
]

SPAN_NAMES = sorted({name for _, _, name in SPAN_SITES})
COUNT_NAMES = [name for _, _, name, _ in COUNT_SITES]

_UNIT_SCALE = {"_s": 1e-9, "_ms": 1e-6, "_us": 1e-3}


def span_unit(name: str) -> tuple[str, float]:
    """Unit label and ns-to-unit factor encoded in a span name's suffix."""
    for suffix, scale in _UNIT_SCALE.items():
        if name.endswith(suffix):
            return suffix[1:], scale
    raise ValueError(f"span name {name!r} has no unit suffix")


@dataclass
class Tracer:
    """In-memory span log: rows of [name, start_ns, end_ns, parent_id]."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap_span(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call, parented to the open span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            row = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(sid)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def wrap_count(self, name: str, fn: Callable, weight: Optional[Callable]) -> Callable:
        """``fn`` adding 1, or ``weight(result)``, to a counter per call."""
        counts = self.counts

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1 if weight is None else weight(out)
            return out

        return counted

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_csv(self, path) -> None:
        own = self.self_ns()
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,self_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start},{end},{parent},{own[sid]}\n")


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every span and counter wrapper; restore the originals on exit."""
    installed = []
    sites = [(m, a, lambda fn, n=n: tracer.wrap_span(n, fn)) for m, a, n in SPAN_SITES]
    sites += [(m, a, lambda fn, n=n, w=w: tracer.wrap_count(n, fn, w))
              for m, a, n, w in COUNT_SITES]
    try:
        for module, path, wrap in sites:
            found = _resolve(module, path)
            if found is None:
                tracer.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(original))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def tail_level(count: int) -> Optional[float]:
    """Highest of p90, p99, p99.9, ... with at least ten samples beyond it."""
    level = None
    k = 1
    while count >= 10 ** (k + 1):
        level = round(100.0 - 100.0 / 10**k, 6)
        k += 1
    return level


def timing_metrics(name: str, durations_ns: list, iterations: int) -> tuple[dict, float]:
    """Median, tail percentile, max and calls per iteration, and the tail's level.

    With fewer samples than a p90 needs, the tail is the maximum (level 100).
    """
    unit, scale = span_unit(name)
    if not durations_ns:
        level = None
        p50 = tail = top = 0.0
    else:
        values = np.asarray(durations_ns, dtype=float) * scale
        level = tail_level(values.size)
        p50, top = float(np.median(values)), float(values.max())
        tail = float(np.percentile(values, level)) if level is not None else top
    metrics = {
        f"{name}.p50": (p50, unit),
        f"{name}.tail": (tail, unit),
        f"{name}.max": (top, unit),
        f"{name}.calls": (len(durations_ns) / max(iterations, 1), "count"),
    }
    return metrics, level if level is not None else 100.0
