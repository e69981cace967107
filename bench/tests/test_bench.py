"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
from chain import chain_model, discrete_chain
from resilest.cli import DEMO_SCENARIO
from resilest.files import scenario_from_dict
from resilest.plant import simulate, three_inertia_model
from spans import Tracer, instrument, tail_level
from workloads import (
    AnalysisSweepWorkload,
    ChainSearchWorkload,
    check_demo,
    check_scenario,
    chain_search_scenario,
    decision_digest,
)

BENCH_DIR = Path(__file__).resolve().parent.parent
TRACE_ARRAYS = ("k", "t", "x", "x_hat", "u", "y", "ybar", "a", "f", "lam_mask", "branch", "bound")


def test_chain_n3_is_three_inertia_bit_for_bit():
    chain, ref = chain_model(3), three_inertia_model()
    for name in ("A_c", "B_c", "C_c"):
        assert np.array_equal(getattr(chain, name), getattr(ref, name))


def test_chain_shapes():
    model = discrete_chain(5, 0.01)
    assert (model.n, model.m, model.p) == (10, 1, 9)


@pytest.fixture(scope="module")
def short_scenarios():
    demo = dataclasses.replace(scenario_from_dict(DEMO_SCENARIO), horizon=300)
    # Horizon past the sensor-1 attack onset at step 200, so the search runs.
    return {"demo": demo, "chain": chain_search_scenario(seed=3, horizon=260)}


@pytest.mark.parametrize("which", ["demo", "chain"])
def test_traced_run_gives_bit_identical_trace(short_scenarios, which):
    sc = short_scenarios[which]
    plain = simulate(sc)
    tracer = Tracer()
    with instrument(tracer):
        import resilest.plant as plant_mod
        traced = plant_mod.simulate(sc)
    assert tracer.spans and not tracer.absent
    for name in TRACE_ARRAYS:
        a, b = getattr(plain, name), getattr(traced, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert decision_digest(plain) == decision_digest(traced)


def test_instrument_restores_originals():
    import resilest.estimator as est
    import resilest.plant as plant_mod

    before = (plant_mod.estimator_step, est.pinv, plant_mod.Scenario.validate)
    with instrument(Tracer()):
        assert plant_mod.estimator_step is not before[0]
    assert (plant_mod.estimator_step, est.pinv, plant_mod.Scenario.validate) == before


def test_checker_flags_bound_scaled_below_error(short_scenarios):
    trace = simulate(short_scenarios["chain"])
    assert check_scenario("chain", trace).ok
    errors = trace.estimation_errors()
    trace.bound = trace.bound * 0.5 * float(np.min(errors / trace.bound))
    check = check_scenario("chain", trace)
    assert not check.ok and "bound violations" in check.detail
    assert not check_demo(0, trace).ok


def test_checker_flags_demo_conditions(short_scenarios):
    trace = simulate(short_scenarios["demo"])  # attack starts at 2000: never fires
    check = check_demo(0, trace)
    assert not check.ok and "no minimizer step" in check.detail
    assert not check_demo(1, trace).ok


def _counts(workload):
    tracer = Tracer()
    with instrument(tracer):
        workload.iterate()
    return dict(tracer.counts)


def test_operation_counts_repeat_at_fixed_seed(tmp_path):
    chain = ChainSearchWorkload(seed=11, outdir=tmp_path, horizon=260)
    first, second = _counts(chain), _counts(chain)
    assert first == second
    assert first["decoding.rank_checks"] > 0
    assert first["decoding.candidates"] == first["decoding.rank_checks"]

    models = [("chain-N3", discrete_chain(3, 0.001)), ("chain-N5", discrete_chain(5, 0.001))]
    sweep = AnalysisSweepWorkload(seed=11, outdir=tmp_path, models=models)
    first, second = _counts(sweep), _counts(sweep)
    assert first == second and first["analysis.rank_checks"] > 0


def test_missing_site_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "SPAN_SITES",
                        spans.SPAN_SITES + [("resilest.plant", "no_such_function", "x.gone_s")])
    tracer = Tracer()
    with instrument(tracer):
        pass
    assert tracer.absent == ["resilest.plant.no_such_function"]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [["root", 0, 100, -1], ["a", 10, 40, 0], ["b", 15, 25, 1],
                       ["c", 50, 60, 0]]
    assert tracer.self_ns() == [100 - 30 - 10, 30 - 10, 10, 10]


@pytest.mark.parametrize("count,level", [(0, None), (99, None), (100, 90.0),
                                         (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert tail_level(count) == level


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_timed_rounds_always_runs_one_round():
    from run import timed_rounds

    assert sum(1 for _ in timed_rounds(0.0)) == 1


def test_timings_scale_with_the_reference_speed(monkeypatch):
    import run
    from workloads import Check, Iteration

    class Fixed:
        def setup_once(self):
            return 0.5

        def iterate(self):
            return Iteration(2.0, 1.5, 100, [Check("fixed", True)])

    # A reference pass at half its nominal time: the host runs at twice the
    # reference speed, so the scaled times double and the rate halves.
    monkeypatch.setattr(run, "reference_s", lambda mats: run.REFERENCE_S / 2)
    metrics, _, detail = run.end_to_end(Fixed(), 0.0)
    assert detail["host_speed"] == 2.0
    assert metrics["setup_s"][0] == 2 * 0.5
    assert metrics["run_s"][0] == 2 * 2.0
    assert metrics["steps_per_s"][0] == 100 / (1.5 - 0.5) / 2
