"""The benchmark's three workloads: inputs from a seed, one timed operation per
iteration, and the correctness check of each operation.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import resilest.analysis as analysis_mod
import resilest.cli as cli_mod
import resilest.plant as plant_mod
from resilest.analysis import security_index_eigenvector
from resilest.files import scenario_from_dict
from resilest.plant import AttackSpec, ObserverConfig, Scenario, Trace

from chain import dense_model, discrete_chain

# Sweep models whose security index disagrees with the eigenvector oracle at
# baseline: at T_s = 1 ms, stacked_cospark returns 6 where the oracle gives
# 7 (N=7) and 8 (N=8).  They stay in the sweep and count as failed
# operations; only a failure outside this set makes a run incorrect.
KNOWN_DEFECTS = frozenset({"chain-N7-Ts1ms", "chain-N8-Ts1ms"})


@dataclass
class Check:
    """Outcome of one operation's correctness check."""

    label: str
    ok: bool
    detail: str = ""

    @property
    def known_defect(self) -> bool:
        return not self.ok and self.label in KNOWN_DEFECTS


@dataclass
class Iteration:
    """One pass of a workload: wall times, work done, checks, and any trace.

    ``digest`` is the decision digest of the trace.  A caller that keeps
    many iterations drops ``trace`` so the traces do not pile up in memory.
    """

    run_s: float
    sim_s: Optional[float]
    steps: int
    checks: list[Check]
    trace: Optional[Trace] = None
    digest: Optional[str] = None


def bound_violations(trace: Trace) -> int:
    """Steps whose estimation error exceeds the certified bound."""
    return int(np.count_nonzero(trace.estimation_errors() > trace.bound))


def decision_digest(trace: Trace) -> str:
    """Hash of the (f, lambda_mask, branch) sequence of a run."""
    h = hashlib.sha256()
    for arr in (trace.f, trace.lam_mask, trace.branch):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def search_useful_ratio(trace: Trace) -> float:
    """Minimizer steps that changed the trusted set / minimizer steps.

    The trusted set entering step k is the one recorded at step k-1.
    """
    steps = np.flatnonzero(trace.branch == 1)
    steps = steps[steps > 0]
    if steps.size == 0:
        return 0.0
    changed = trace.lam_mask[steps] != trace.lam_mask[steps - 1]
    return float(np.count_nonzero(changed)) / steps.size


def check_demo(rc: int, trace: Optional[Trace]) -> Check:
    """CLI exit 0, no bound violation, a minimizer step, sensor 1 untrusted at the end."""
    if rc != 0 or trace is None:
        return Check("demo", False, f"exit code {rc}")
    problems = []
    violations = bound_violations(trace)
    if violations:
        problems.append(f"{violations} bound violations")
    if not np.any(trace.branch == 1):
        problems.append("no minimizer step")
    if trace.lam_mask[-1] & 1:
        problems.append("sensor 1 trusted at the last step")
    return Check("demo", not problems, "; ".join(problems))


def check_scenario(label: str, trace: Trace) -> Check:
    violations = bound_violations(trace)
    return Check(label, violations == 0, f"{violations} bound violations" if violations else "")


def check_report(label: str, report, oracle: int) -> Check:
    """Security index equals the eigenvector oracle; constants finite and positive.

    ``eta_prime`` is a maximum over the blocks in a selection but outside
    its (p - r)-subselection; with the default r = q that set is empty, so
    0 is its correct value and the check only asks that it be nonnegative.
    """
    problems = []
    if report.security_index != oracle:
        problems.append(f"security index {report.security_index} != oracle {oracle}")
    for q, consts in report.per_q_constants.items():
        for f in dataclasses.fields(consts):
            value = getattr(consts, f.name)
            if f.name in ("q", "r"):
                continue
            floor_ok = value >= 0 if f.name == "eta_prime" else value > 0
            if not (math.isfinite(value) and floor_ok):
                problems.append(f"constant {f.name}={value} at q={q}")
    return Check(label, not problems, "; ".join(problems))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class DemoWorkload:
    """``resilest demo`` through ``cli.main``: the shipped three-inertia run.

    The demo command fixes its own scenario and noise seed, so the benchmark
    seed does not change its inputs.
    """

    name = "demo"

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir / "demo"
        self.scenario = scenario_from_dict(cli_mod.DEMO_SCENARIO)

    def setup_once(self) -> float:
        return _timed(plant_mod.simulate, dataclasses.replace(self.scenario, horizon=1))[1]

    def iterate(self) -> Iteration:
        captured = []
        inner = cli_mod.simulate

        def capture(sc):
            trace, sim_s = _timed(inner, sc)
            captured.append((trace, sim_s))
            return trace

        cli_mod.simulate = capture
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_mod.main(["demo", "--out", str(self.outdir)])
        except Exception as exc:  # a failed operation is counted, not fatal
            return Iteration(time.perf_counter() - t0, None, 0,
                             [Check(self.name, False, repr(exc))])
        finally:
            cli_mod.simulate = inner
        run_s = time.perf_counter() - t0
        if not captured:
            return Iteration(run_s, None, 0, [check_demo(rc, None)])
        trace, sim_s = captured[0]
        return Iteration(run_s, sim_s, trace.horizon, [check_demo(rc, trace)], trace,
                         decision_digest(trace))


def chain_search_scenario(seed: int, horizon: int = 2000) -> Scenario:
    """N=5 chain at T_s = 10 ms, q=2, r=4, two attacked sensors, re-certification."""
    model = discrete_chain(5, 0.01)
    rng = np.random.default_rng((seed, 5))
    x0 = rng.standard_normal(model.n)
    x0 *= 0.5 / np.linalg.norm(x0)
    return Scenario(
        model=model,
        horizon=horizon,
        q=2,
        r=4,
        attacks=(
            AttackSpec(1, 200, None, {"kind": "random", "lo": -50.0, "hi": 50.0}),
            AttackSpec(6, 500, None, {"kind": "constant", "value": 50.0}),
        ),
        seed=seed,
        observer=ObserverConfig(mode="contract", factor=0.98, x0_max=1.0),
        x0=x0,
        dt=0.01,
        recert_every=10,
    )


class ChainSearchWorkload:
    """``simulate`` on a structured model whose minimizer runs often."""

    name = "chain_search"

    def __init__(self, seed: int, outdir: Path, horizon: int = 2000):
        self.scenario = chain_search_scenario(seed, horizon)

    def setup_once(self) -> float:
        return _timed(plant_mod.simulate, dataclasses.replace(self.scenario, horizon=1))[1]

    def iterate(self) -> Iteration:
        t0 = time.perf_counter()
        try:
            trace = plant_mod.simulate(self.scenario)
        except Exception as exc:  # a failed operation is counted, not fatal
            run_s = time.perf_counter() - t0
            return Iteration(run_s, run_s, 0, [Check(self.name, False, repr(exc))])
        run_s = time.perf_counter() - t0
        return Iteration(run_s, run_s, trace.horizon, [check_scenario(self.name, trace)], trace,
                         decision_digest(trace))


DENSE_P = range(6, 14)
CHAIN_N = range(3, 9)


def sweep_models(seed: int) -> list[tuple[str, object]]:
    """Dense random models (n=4, p=6..13) and chains (N=3..8) at T_s = 1 ms."""
    rng = np.random.default_rng((seed, 4))
    models = [(f"dense-n4-p{p}", dense_model(rng, 4, p)) for p in DENSE_P]
    models += [(f"chain-N{N}-Ts1ms", discrete_chain(N, 0.001)) for N in CHAIN_N]
    return models


class AnalysisSweepWorkload:
    """``analyze()`` with default q over both model families; no online code."""

    name = "analysis_sweep"

    def __init__(self, seed: int, outdir: Path, models: Optional[list] = None):
        self.seed = seed
        self.models = sweep_models(seed) if models is None else models
        self.oracles = [security_index_eigenvector(m) for _, m in self.models]

    def setup_once(self) -> float:
        return _timed(sweep_models, self.seed)[1]

    def iterate(self) -> Iteration:
        checks = []
        run_s = 0.0
        for (label, model), oracle in zip(self.models, self.oracles):
            t0 = time.perf_counter()
            try:
                report = analysis_mod.analyze(model)
            except Exception as exc:  # a failed operation is counted, not fatal
                run_s += time.perf_counter() - t0
                checks.append(Check(label, False, repr(exc)))
                continue
            run_s += time.perf_counter() - t0
            checks.append(check_report(label, report, oracle))
        return Iteration(run_s, None, 0, checks)


WORKLOADS = {w.name: w for w in (DemoWorkload, ChainSearchWorkload, AnalysisSweepWorkload)}
