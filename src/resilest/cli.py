"""Command-line surface: analyze, simulate, decode, demo.

Exit codes: 0 success, 2 invalid input (including malformed JSON shapes and
unwritable outputs), 3 mathematical precondition failed (non-correctable
coding matrix, undefined constants).  The environment variable
``RESILEST_EPS`` sets the relative rank tolerance ``eps_rel`` of ``analyze`` and
``decode``; ``simulate`` and ``demo`` decide on the orthonormal coding matrix
``Z'`` with the default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from ._linalg import DEFAULT_EPS_REL
from .analysis import CorrectabilityError, analyze
from .decoding import decode_noiseless, decode_noisy
from .files import (
    load_model,
    load_scenario,
    read_matrix_csv,
    read_vector_csv,
    save_scenario_dict,
    write_trace_csv,
)
from .plant import ScenarioValidationError, simulate
from .plots import write_svg_plot
from .stacked import CodingMatrix

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_PRECONDITION = 3

DEMO_SCENARIO = {
    "model": {"builtin": "three_inertia", "T_s": 0.001, "d_max": 0.001, "n_max": 0.001},
    "horizon": 6000,
    "q": 1,
    "r": 1,
    "x0": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "attacks": [
        {
            "sensor": 1,
            "start_step": 2000,
            "end_step": None,
            "waveform": {"kind": "constant", "value": 20.0},
        }
    ],
    "noise": {"seed": 20210819, "distribution": "uniform-ball"},
    "controller": {
        "K": [[-2.32, -0.25, 2.47, -0.04, -1.70, -0.12]],
        "K_I": [0.002],
        "reference": 1.0,
        "reference_onset": 0,
        "output_index": 3,
    },
    "observer": {"poles": {"mode": "contract", "factor": 0.98}, "x0_max": 1.0},
}


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        model, _ = load_model(args.model)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        report = analyze(model, constants_q=args.q, r=args.r, eps_rel=args.eps_rel)
    except CorrectabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    if args.json:
        doc = {
            "security_index": report.security_index,
            "max_detectable_q": report.max_detectable_q,
            "max_correctable_q": report.max_correctable_q,
            "redundancy_degree": report.redundancy_degree,
            "witness": list(report.witness),
            "constants": {
                str(q): dataclasses.asdict(c) for q, c in report.per_q_constants.items()
            },
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    print(f"security_index: {report.security_index}")
    print("witness: {" + ",".join(str(i) for i in report.witness) + "}")
    if report.max_detectable_q < 0:
        print("redundancy_degree: not observable")
        print("max_detectable_q: not observable")
        print("max_correctable_q: not observable")
    else:
        print(f"redundancy_degree: {report.redundancy_degree}")
        print(f"max_detectable_q: {report.max_detectable_q}")
        print(f"max_correctable_q: {report.max_correctable_q}")
    for q, c in sorted(report.per_q_constants.items()):
        print(f"constants[q={q}, r={c.r}]:")
        print(f"  rho={c.rho:.6g} eta={c.eta:.6g} kappa_d={c.kappa_d:.6g} "
              f"kappa_e={c.kappa_e:.6g}")
        print(f"  eta_prime={c.eta_prime:.6g} theta={c.theta:.6g} "
              f"kappa_c={c.kappa_c:.6g} kappa_c_prime={c.kappa_c_prime:.6g}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # checked before the run, not after it
        print(f"error: cannot write trace: {args.out} is not a file path in an existing "
              "directory", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        sc = load_scenario(args.scenario)
        if args.seed is not None:
            sc = dataclasses.replace(sc, seed=args.seed)
        trace = simulate(sc)
    except (OSError, json.JSONDecodeError, ScenarioValidationError, ValueError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        write_trace_csv(trace, args.out)
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    errors = trace.estimation_errors()
    minimizer_steps = int(np.count_nonzero(trace.branch == 1))
    print(
        f"steps={trace.horizon} max_error={errors.max():.6g} "
        f"max_bound={trace.bound.max():.6g} minimizer_invocations={minimizer_steps} "
        f"trace={args.out}"
    )
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    try:
        phi_raw = read_matrix_csv(args.phi)
        z_raw = read_vector_csv(args.z)
        rows, n = phi_raw.shape
        if rows % n != 0:
            raise ValueError(f"coding matrix rows {rows} not a multiple of columns {n}")
        p = rows // n
        phi = CodingMatrix(phi_raw, n, p)
        if z_raw.size != rows:
            raise ValueError(f"measurement length {z_raw.size} != coding matrix rows {rows}")
        z = z_raw.reshape(p, n)
    except (OSError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    try:
        if args.vmax is not None:
            result = decode_noisy(phi, z, args.q, args.r, args.vmax, eps_rel=args.eps_rel)
        else:
            result = decode_noiseless(phi, z, args.q, args.r, eps_rel=args.eps_rel)
    except CorrectabilityError as exc:
        print(
            f"error: {exc} (correctability of q errors needs every "
            f"(p-2q)-sensor selection to keep full rank)",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    support = "{" + ",".join(str(i) for i in result.support_estimate) + "}"
    x_hat = ", ".join(f"{v:.12g}" for v in result.estimate)
    print(f"x_hat: {x_hat}")
    print(f"support: {support}")
    print(f"objective: {result.objective}")
    print(f"certified: {str(result.certified).lower()}")
    if args.vmax is not None:
        print(f"error_bound: {result.error_bound:.12g}")
    return EXIT_OK


DEMO_PLOT_FILES = ("attacked_measurement.svg", "angle1_estimate.svg",
                   "rate2_estimate.svg", "tracking.svg")
DEMO_OUTPUT_FILES = ("scenario.json", "trace.csv") + DEMO_PLOT_FILES


def cmd_demo(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    scenario_path = outdir / "scenario.json"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        # outputs are unlinked and re-created, so only a directory in the way
        # fails; find it before the run, not after it
        for name in DEMO_OUTPUT_FILES:
            if (outdir / name).is_dir():
                raise IsADirectoryError(f"{outdir / name} is a directory")
        save_scenario_dict(DEMO_SCENARIO, scenario_path)
    except OSError as exc:
        print(f"error: cannot write demo output: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    sc = load_scenario(scenario_path)
    trace = simulate(sc)
    trace_path = outdir / "trace.csv"

    t = trace.t
    ref = np.where(
        trace.k >= DEMO_SCENARIO["controller"]["reference_onset"],
        DEMO_SCENARIO["controller"]["reference"],
        0.0,
    )
    panels = zip(DEMO_PLOT_FILES, [
        ([("ybar_1", t, trace.ybar[:, 0])], "Sensor 1 measurement under injection"),
        ([("theta_1", t, trace.x[:, 0]), ("theta_1 estimate", t, trace.x_hat[:, 0])],
         "First inertia angle and its estimate"),
        ([("rate_2", t, trace.x[:, 3]), ("rate_2 estimate", t, trace.x_hat[:, 3])],
         "Second inertia rate and its estimate"),
        ([("reference", t, ref), ("theta_3", t, trace.x[:, 4])], "Output tracking"),
    ])
    try:
        write_trace_csv(trace, trace_path)
        for fname, (series, title) in panels:
            write_svg_plot(outdir / fname, series, title)
    except OSError as exc:
        print(f"error: cannot write demo output: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    errors = trace.estimation_errors()
    minimizer_steps = int(np.count_nonzero(trace.branch == 1))
    print(f"scenario={scenario_path}")
    print(f"trace={trace_path}")
    print(f"plots={', '.join(str(outdir / f) for f in DEMO_PLOT_FILES)}")
    print(
        f"steps={trace.horizon} max_error={errors.max():.6g} "
        f"max_bound={trace.bound.max():.6g} minimizer_invocations={minimizer_steps}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilest",
        description="Sparse-sensor-attack resilience analysis and estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="security index and robustness constants")
    pa.add_argument("--model", required=True, help="model JSON file")
    pa.add_argument("--q", type=int, default=None, help="attack budget for constants")
    pa.add_argument("--r", type=int, default=None, help="search size (default q)")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="run a scenario and write a trace CSV")
    ps.add_argument("--scenario", required=True, help="scenario JSON file")
    ps.add_argument("--out", required=True, help="trace CSV output path")
    ps.add_argument("--seed", type=int, default=None, help="override the noise seed")
    ps.set_defaults(func=cmd_simulate)

    pd = sub.add_parser("decode", help="offline block-sparse decode")
    pd.add_argument("--phi", required=True, help="coding matrix CSV (row-major)")
    pd.add_argument("--z", required=True, help="measurement CSV, one value per line: "
                    "the n-value blocks in sensor order")
    pd.add_argument("--q", type=int, required=True, help="attack sparsity budget")
    pd.add_argument("--r", type=int, default=None, help="search size (default q)")
    pd.add_argument("--vmax", type=float, default=None, help="per-block noise bound")
    pd.set_defaults(func=cmd_decode)

    pm = sub.add_parser("demo", help="three-inertia benchmark scenario with plots")
    pm.add_argument("--out", default="demo_out", help="output directory")
    pm.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        eps_rel = float(os.environ.get("RESILEST_EPS", DEFAULT_EPS_REL))
        if not 0.0 < eps_rel < 1.0:
            raise ValueError(f"eps_rel must lie in (0, 1), got {eps_rel}")
    except ValueError as exc:
        print(f"error: bad RESILEST_EPS: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    args = build_parser().parse_args(argv)
    args.eps_rel = eps_rel
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
