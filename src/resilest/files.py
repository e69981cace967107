"""File formats: JSON model/scenario configs, CSV matrices and traces.

Matrices travel as row-major CSV (one row per line, optional non-numeric
header line skipped); vectors as one value per line.  Structured configs
are JSON.  The trace CSV has the fixed header
``k,t,x_1..x_n,xhat_1..xhat_n,u_1..u_m,ybar_1..ybar_p,a_1..a_p,f,lambda_mask,branch,bound``.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .analysis import SystemModel
from .plant import (
    AttackSpec,
    ControllerConfig,
    ObserverConfig,
    Scenario,
    ScenarioValidationError,
    Trace,
    three_inertia_model,
    zoh_discretize,
)

PathLike = Union[str, Path]

BUILTIN_MODELS = ("three_inertia",)


def load_model(path: PathLike) -> tuple[SystemModel, float]:
    """Read a model JSON file; returns the model and its sampling period.

    Either explicit matrices ``{"n","m","p","A","B","C","d_max","n_max"}``
    or ``{"builtin": "three_inertia", "T_s": ...}`` with optional d_max /
    n_max overrides (both default 0.001 for the builtin).
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return model_from_dict(doc)
    except (TypeError, AttributeError) as exc:  # a JSON value of the wrong shape
        raise ValueError(f"malformed model file: {exc}") from exc


def model_from_dict(doc: dict) -> tuple[SystemModel, float]:
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in BUILTIN_MODELS:
            raise ValueError(f"unknown builtin model {name!r}; available: {BUILTIN_MODELS}")
        T_s = float(doc.get("T_s", 0.001))
        d_max = float(doc.get("d_max", 0.001))
        n_max = float(doc.get("n_max", 0.001))
        model = zoh_discretize(three_inertia_model(), T_s, d_max=d_max, n_max=n_max)
        return model, T_s

    try:
        A = np.array(doc["A"], dtype=float)
        B = np.array(doc["B"], dtype=float)
        C = np.array(doc["C"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"model file missing matrix entry {exc}") from exc
    model = SystemModel(
        A=A, B=B, C=C,
        d_max=float(doc.get("d_max", 0.0)),
        n_max=float(doc.get("n_max", 0.0)),
    )
    for dim in ("n", "m", "p"):
        if dim in doc and int(doc[dim]) != getattr(model, dim):
            raise ValueError(
                f"declared {dim}={doc[dim]} contradicts matrix shapes ({getattr(model, dim)})"
            )
    return model, float(doc.get("T_s", 1.0))


def scenario_from_dict(doc: dict) -> Scenario:
    model, dt = model_from_dict(doc["model"])

    noise = doc.get("noise", {})
    if "distribution" in noise and noise["distribution"] != "uniform-ball":
        raise ValueError(f"unsupported noise distribution {noise['distribution']!r}")
    if "d_max" in noise or "n_max" in noise:
        model = SystemModel(
            A=model.A, B=model.B, C=model.C,
            d_max=float(noise.get("d_max", model.d_max)),
            n_max=float(noise.get("n_max", model.n_max)),
        )

    attacks = tuple(
        AttackSpec(
            sensor=int(a["sensor"]),
            start_step=int(a["start_step"]),
            end_step=None if a.get("end_step") is None else int(a["end_step"]),
            waveform=dict(a["waveform"]),
        )
        for a in doc.get("attacks", [])
    )

    controller = None
    if doc.get("controller"):
        c = doc["controller"]
        controller = ControllerConfig(
            K=np.array(c["K"], dtype=float),
            K_I=np.array(c["K_I"], dtype=float),
            reference=float(c.get("reference", 0.0)),
            reference_onset=int(c.get("reference_onset", 0)),
            output_index=int(c.get("output_index", 1)),
        )

    obs_doc = doc.get("observer", {})
    poles = obs_doc.get("poles", {})
    observer = ObserverConfig(
        mode=poles.get("mode", "radius"),
        radius=float(poles.get("radius", 0.5)),
        factor=float(poles.get("factor", 0.98)),
        pole_sets=(
            tuple(tuple(tuple(float(v) for v in pair) for pair in sensor_poles)
                  for sensor_poles in poles["sets"])
            if poles.get("sets") is not None
            else None
        ),
        x0_max=float(obs_doc.get("x0_max", 10.0)),
    )

    q = int(doc["q"])
    return Scenario(
        model=model,
        horizon=int(doc["horizon"]),
        q=q,
        r=int(doc.get("r", q)),
        attacks=attacks,
        seed=int(noise.get("seed", 0)),
        controller=controller,
        observer=observer,
        x0=np.array(doc["x0"], dtype=float) if doc.get("x0") is not None else None,
        dt=dt,
        recert_every=doc.get("recert_every"),
        noise_scale=float(noise.get("scale", 1.0)),
    )


def load_scenario(path: PathLike) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return scenario_from_dict(doc)
    except KeyError as exc:
        raise ScenarioValidationError(f"scenario file missing entry {exc}") from exc
    except (TypeError, AttributeError) as exc:  # a JSON value of the wrong shape
        raise ScenarioValidationError(f"malformed scenario file: {exc}") from exc


def open_fresh(path: PathLike) -> TextIO:
    """Open ``path`` for writing as a new file: unlink what is there, then create.

    When ``path`` names a regular file (directly or through a symlink), the
    output goes to a new inode, so a symlink or hard link at ``path`` is
    replaced rather than written through.  On ext4 with ``auto_da_alloc``
    (the default), truncating the previous run's file first writes back its
    delayed-allocation data, and renaming a temporary file over it flushes
    the new one; a rerun waits for that writeback.  Unlinking waits for
    neither.  Anything else at ``path`` (a device such as ``/dev/null``, a
    FIFO, a symlink to either) is opened and written as it stands, and so is
    a regular file whose directory does not allow the unlink.
    """
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass
    return open(path, "w")


def save_scenario_dict(doc: dict, path: PathLike) -> None:
    with open_fresh(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _numeric_line(line: str) -> bool:
    for tok in line.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            float(tok)
        except ValueError:
            return False
    return True


def read_matrix_csv(path: PathLike) -> np.ndarray:
    """Row-major CSV matrix; a leading non-numeric header line is skipped."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if not line.replace(",", "").strip():
                raise ValueError(f"{path}: no value at line {lineno + 1}")
            if not _numeric_line(line):
                if lineno == 0:
                    continue
                raise ValueError(f"{path}: non-numeric data at line {lineno + 1}")
            rows.append([float(tok) for tok in line.split(",") if tok.strip()])
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.array(rows)


def read_vector_csv(path: PathLike) -> np.ndarray:
    """One value per line (a single-column matrix is accepted too)."""
    mat = read_matrix_csv(path)
    if mat.shape[1] != 1:
        raise ValueError(f"{path}: expected one value per line, got width {mat.shape[1]}")
    return mat[:, 0]


def trace_header(n: int, m: int, p: int) -> list[str]:
    cols = ["k", "t"]
    cols += [f"x_{i}" for i in range(1, n + 1)]
    cols += [f"xhat_{i}" for i in range(1, n + 1)]
    cols += [f"u_{i}" for i in range(1, m + 1)]
    cols += [f"ybar_{i}" for i in range(1, p + 1)]
    cols += [f"a_{i}" for i in range(1, p + 1)]
    cols += ["f", "lambda_mask", "branch", "bound"]
    return cols


def write_trace_csv(trace: Trace, path: PathLike) -> None:
    """One row per step: integers by ``str``, floats by ``repr`` of ``.tolist()`` values."""
    n = trace.x.shape[1]
    m = trace.u.shape[1]
    p = trace.ybar.shape[1]
    header = ",".join(trace_header(n, m, p))
    with open_fresh(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, trace.horizon, 128):  # small slabs keep peak memory flat
            rows = slice(lo, lo + 128)
            floats = np.hstack((trace.t[rows, None], trace.x[rows], trace.x_hat[rows],
                                trace.u[rows], trace.ybar[rows], trace.a[rows]))
            fh.writelines(
                f"{k},{','.join(map(repr, vals))},{f},{lam},{branch},{bound!r}\n"
                for k, vals, f, lam, branch, bound in zip(
                    trace.k[rows].tolist(), floats.tolist(), trace.f[rows].tolist(),
                    trace.lam_mask[rows].tolist(), trace.branch[rows].tolist(),
                    trace.bound[rows].tolist(),
                )
            )
