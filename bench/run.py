"""Benchmark entry point.

    python3 bench/run.py --workload {demo,chain_search,analysis_sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_BATCH_S = 0.05
SETUP_MIN_REPS = 5

# The host is a shared virtual machine whose speed drifts by up to 1.6x
# over minutes, so whole runs of the same code land in fast or slow spells.
# A fixed reference loop, timed after every round of a run for a fixed
# share of the round's length, measures that speed; the timed end-to-end
# metrics are scaled to the speed at which one reference pass takes
# REFERENCE_S.  The loop is the benchmark's own code, so no change to the
# library moves it.
REFERENCE_S = 0.018
REFERENCE_REPS = 300
REFERENCE_SHARE = 0.05


def import_library():
    """Import resilest from the checkout's ``src/``; exit non-zero if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import resilest
    except ImportError as exc:
        sys.exit(f"error: cannot import resilest from {src}: {exc}")
    if src.resolve() not in Path(resilest.__file__).resolve().parents:
        sys.exit(f"error: resilest was imported from {resilest.__file__}, not {src}")
    return resilest


def fingerprint(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s(mats) -> float:
    """Time one pass of the reference loop: small dense linear algebra and plain Python."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_REPS):
        m = mats[i % len(mats)]
        acc += np.linalg.pinv(m)[0, 0] + (m @ m)[1, 1]
        acc += sum(k * 0.5 for k in range(40))
    return time.perf_counter() - t0


def reference_batch(mats, duration: float) -> list[float]:
    """Reference passes covering REFERENCE_SHARE of ``duration``; at least one."""
    times = [reference_s(mats)]
    while sum(times) < REFERENCE_SHARE * duration:
        times.append(reference_s(mats))
    return times


def reference_mats() -> list:
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.standard_normal((10, 10)) for _ in range(8)]


def setup_batch(workload) -> list[float]:
    """Set-up times, repeated until the batch covers SETUP_BATCH_S."""
    times = [workload.setup_once()]
    while sum(times) < SETUP_BATCH_S:
        times.append(workload.setup_once())
    return times


def timed_rounds(seconds: float):
    """Yield rounds until the next one, as long as the last, would end past ``seconds``.

    The first round always runs.  A run then ends close to ``seconds``
    instead of overrunning it by up to one round.
    """
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        yield
        last = time.perf_counter() - start
        if time.perf_counter() - t0 + last > seconds:
            return


def end_to_end(workload, seconds: float) -> tuple[dict, list, dict]:
    # Set-up and iterations alternate, so each iteration has a set-up time
    # measured right before it under the same host conditions.
    mats = reference_mats()
    reference_s(mats)
    workload.setup_once()  # warm-up: first-call costs stay out of the figures
    setup, paired, iterations, refs = [], [], [], []
    for _ in timed_rounds(seconds):
        start = time.perf_counter()
        batch = setup_batch(workload)
        setup += batch
        paired.append(statistics.median(batch))
        it = workload.iterate()
        it.trace = None  # peak RSS is then the program's, not the number of kept traces
        iterations.append(it)
        # Passes in proportion to the round's length sample the host evenly.
        refs += reference_batch(mats, time.perf_counter() - start)
    while len(setup) < SETUP_MIN_REPS:
        setup += setup_batch(workload)
    setup_s = statistics.median(setup)

    # The host moves between fast and slow spells that last seconds, about
    # as long as one operation.  The mean over the whole run weights each
    # spell by its length; a median of ten such samples jumps between them.
    run_s = statistics.fmean(it.run_s for it in iterations)
    simulated = [(it, su) for it, su in zip(iterations, paired) if it.sim_s is not None]
    if simulated:
        # Steps per second of the loop proper, over the whole run: simulate
        # wall minus the set-up measured just before it.  A ratio of sums
        # averages the host's slow and fast spells instead of picking one.
        loop_s = sum(it.sim_s - su for it, su in simulated)
        steps_per_s = sum(it.steps for it, _ in simulated) / max(loop_s, 1e-9)
    else:
        # The sweep simulates nothing: models analysed per second instead.
        steps_per_s = (sum(len(it.checks) for it in iterations)
                       / sum(it.run_s for it in iterations))
    checks = [c for it in iterations for c in it.checks]
    passed = sum(c.ok for c in checks)
    # Host speed over the whole run, as a multiple of the reference speed.
    speed = REFERENCE_S / statistics.fmean(refs)
    metrics = {
        "setup_s": (setup_s * speed, "s"),
        "run_s": (run_s * speed, "s"),
        "steps_per_s": (steps_per_s / speed, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_rate": (passed / len(checks), "fraction"),
    }
    detail = {
        "host_speed": speed,
        "reference_samples_s": refs,
        "unscaled": {"setup_s": setup_s, "run_s": run_s, "steps_per_s": steps_per_s},
        "iterations": len(iterations),
        "setup_samples": len(setup),
        "setup_quartiles_s": statistics.quantiles(setup, n=4),
        "run_samples_s": [it.run_s for it in iterations],
        "sim_samples_s": [it.sim_s for it in iterations],
    }
    return metrics, iterations, detail


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, list, dict]:
    from spans import COUNT_NAMES, SPAN_NAMES, Tracer, instrument, timing_metrics
    from workloads import search_useful_ratio

    tracer = Tracer()
    plain, traced, counts = [], [], []
    workload.setup_once()  # warm-up, as in end_to_end
    for _ in timed_rounds(seconds):
        it = workload.iterate()
        it.trace = None
        plain.append(it)
        before = dict(tracer.counts)
        with instrument(tracer):
            it = tracer.wrap_span("bench.iteration_s", workload.iterate)()
        if traced:
            it.trace = None  # only the first traced trace is read below
        traced.append(it)
        counts.append({k: tracer.counts[k] - before.get(k, 0) for k in COUNT_NAMES})

    n = len(traced)
    durations: dict[str, list] = {name: [] for name in SPAN_NAMES}
    harness = []
    own = tracer.self_ns()
    for sid, (name, start, end, _) in enumerate(tracer.spans):
        if name in durations:
            durations[name].append(end - start)
        if name == "plant.simulate_s":
            harness.append(own[sid] * 1e-9)

    metrics, tail_levels = {}, {}
    for name in SPAN_NAMES:
        timings, tail_levels[name] = timing_metrics(name, durations[name], n)
        metrics.update(timings)
    for name in COUNT_NAMES:
        metrics[name] = (counts[0][name], "count")
    first = traced[0].trace
    metrics["estimator.calculator_steps"] = (
        int((first.branch == 0).sum()) if first is not None else 0, "count")
    metrics["estimator.minimizer_steps"] = (
        int((first.branch == 1).sum()) if first is not None else 0, "count")
    metrics["decoding.search_useful_ratio"] = (
        search_useful_ratio(first) if first is not None else 0.0, "ratio")
    metrics["plant.harness_s"] = (statistics.median(harness) if harness else 0.0, "s")
    metrics["trace_overhead"] = (
        statistics.median(it.run_s for it in traced)
        / statistics.median(it.run_s for it in plain) - 1.0, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)
    detail = {
        "iterations": {"untraced": len(plain), "traced": n},
        "absent_sites": tracer.absent,
        "counts_repeat": all(c == counts[0] for c in counts),
        "tail_percentiles": tail_levels,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, plain + traced, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    host = fingerprint(args)
    print("host " + json.dumps(host), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.trace:
        metrics, iterations, detail = per_layer(workload, args.seconds, args.seed)
    else:
        metrics, iterations, detail = end_to_end(workload, args.seconds)

    checks = [c for it in iterations for c in it.checks]
    failed = [c for c in checks if not c.ok]
    digests = sorted({it.digest for it in iterations if it.digest is not None})
    detail.update({
        "decision_digests": digests,
        "failed_operations": sorted({f"{c.label}: {c.detail}" for c in failed}),
        "known_defects_seen": sorted({c.label for c in failed if c.known_defect}),
    })
    print("detail " + json.dumps(detail), flush=True)

    result = {
        "correct": all(c.ok or c.known_defect for c in checks),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
