import copy
import csv
import dataclasses
import json
import math
import os
import stat
import threading

import numpy as np
import pytest

from resilest.analysis import RobustnessConstants, observability_matrix
from resilest.cli import DEMO_OUTPUT_FILES, DEMO_SCENARIO, main
from resilest.files import (
    load_model,
    load_scenario,
    open_fresh,
    read_matrix_csv,
    read_vector_csv,
    scenario_from_dict,
    trace_header,
    write_trace_csv,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


THREE_INERTIA_DOC = {"builtin": "three_inertia", "T_s": 0.001}

SCALAR_MODEL_DOC = {
    "n": 1, "m": 1, "p": 3,
    "A": [[0.95]], "B": [[0.0]], "C": [[1.0], [1.0], [1.0]],
    "d_max": 0.001, "n_max": 0.001,
}


def scalar_scenario_doc(**overrides):
    doc = {
        "model": dict(SCALAR_MODEL_DOC),
        "horizon": 80,
        "q": 1,
        "r": 1,
        "x0": [0.5],
        "attacks": [
            {"sensor": 3, "start_step": 10, "end_step": None,
             "waveform": {"kind": "constant", "value": 1.0}}
        ],
        "noise": {"seed": 5},
        "observer": {"poles": {"mode": "radius", "radius": 0.5}, "x0_max": 1.0},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# file formats


def test_load_builtin_model(tmp_path):
    model, dt = load_model(write_json(tmp_path / "m.json", THREE_INERTIA_DOC))
    assert model.n == 6 and model.m == 1 and model.p == 5
    assert dt == 0.001
    assert model.d_max == 0.001


def test_load_matrix_model_checks_dims(tmp_path):
    doc = dict(SCALAR_MODEL_DOC)
    doc["p"] = 4
    with pytest.raises(ValueError, match="p=4"):
        load_model(write_json(tmp_path / "m.json", doc))


def test_unknown_builtin_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown builtin"):
        load_model(write_json(tmp_path / "m.json", {"builtin": "quadrotor"}))


def test_scenario_round_trip(tmp_path):
    doc = scalar_scenario_doc()
    sc1 = load_scenario(write_json(tmp_path / "s.json", doc))
    sc2 = scenario_from_dict(json.loads(json.dumps(doc)))
    assert sc1.horizon == sc2.horizon == 80
    assert sc1.q == sc2.q == 1
    assert sc1.seed == 5
    assert np.array_equal(sc1.x0, sc2.x0)
    assert sc1.attacks == sc2.attacks
    assert sc1.observer == sc2.observer
    from resilest.plant import simulate

    a, b = simulate(sc1), simulate(sc2)
    assert np.array_equal(a.x_hat, b.x_hat)


def test_scenario_noise_overrides_model_bounds(tmp_path):
    doc = scalar_scenario_doc(noise={"seed": 1, "d_max": 0.5, "n_max": 0.25})
    sc = load_scenario(write_json(tmp_path / "s.json", doc))
    assert sc.model.d_max == 0.5
    assert sc.model.n_max == 0.25


def test_scenario_explicit_pole_sets(tmp_path):
    doc = scalar_scenario_doc(observer={
        "poles": {"mode": "explicit",
                  "sets": [[[0.4, 0.0]], [[0.5, 0.0]], [[0.6, 0.0]]]},
        "x0_max": 1.0,
    })
    sc = load_scenario(write_json(tmp_path / "s.json", doc))
    from resilest.plant import build_observer_bank

    bank = build_observer_bank(sc.model, sc.observer)
    achieved = [float(np.abs(np.linalg.eigvals(o.F))[0]) for o in bank]
    assert achieved == pytest.approx([0.4, 0.5, 0.6], abs=1e-9)
    from resilest.plant import simulate

    simulate(sc)  # runs end to end with per-sensor pole lists


def test_read_matrix_csv_with_header(tmp_path):
    f = tmp_path / "phi.csv"
    f.write_text("c1,c2\n1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(read_matrix_csv(f), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_csv_rejects_ragged(tmp_path):
    f = tmp_path / "phi.csv"
    f.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix_csv(f)


def test_read_vector_csv(tmp_path):
    f = tmp_path / "z.csv"
    f.write_text("5\n5\n12\n")
    assert np.array_equal(read_vector_csv(f), [5.0, 5.0, 12.0])


def test_trace_csv_schema_and_roundtrip(tmp_path):
    from resilest.files import load_scenario as _load
    from resilest.plant import simulate

    sc = _load(write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=12)))
    tr = simulate(sc)
    out = tmp_path / "trace.csv"
    write_trace_csv(tr, out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == trace_header(1, 1, 3)
    assert len(lines) == 1 + 12
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (12, len(header))
    # spot-check column alignment: k column and bound column
    assert np.array_equal(data[:, 0], np.arange(12))
    assert np.allclose(data[:, -1], tr.bound)


def reference_trace_csv(trace):
    """The per-element formatting loop that ``write_trace_csv`` replaced."""
    n, m, p = trace.x.shape[1], trace.u.shape[1], trace.ybar.shape[1]
    out = [",".join(trace_header(n, m, p)) + "\n"]
    for k in range(trace.horizon):
        parts = [str(int(trace.k[k])), repr(float(trace.t[k]))]
        parts += [repr(float(v)) for v in trace.x[k]]
        parts += [repr(float(v)) for v in trace.x_hat[k]]
        parts += [repr(float(v)) for v in trace.u[k]]
        parts += [repr(float(v)) for v in trace.ybar[k]]
        parts += [repr(float(v)) for v in trace.a[k]]
        parts += [
            str(int(trace.f[k])),
            str(int(trace.lam_mask[k])),
            str(int(trace.branch[k])),
            repr(float(trace.bound[k])),
        ]
        out.append(",".join(parts) + "\n")
    return "".join(out)


def nonfinite_burst_trace():
    """The demo plant with a NaN, inf, -inf and 1e308 burst on sensor 1."""
    from resilest.plant import simulate

    doc = copy.deepcopy(DEMO_SCENARIO)
    doc["horizon"] = 2100  # sixteen 128-row slabs and a partial one
    doc["attacks"] = [
        {"sensor": 1, "start_step": 2000 + 3 * i, "end_step": 2003 + 3 * i,
         "waveform": {"kind": "constant", "value": value}}
        for i, value in enumerate([math.nan, math.inf, -math.inf, 1e308])
    ]
    tr = simulate(scenario_from_dict(doc))
    for column in (tr.ybar[:, 0], tr.a[:, 0]):
        assert np.isnan(column).any() and np.isposinf(column).any()
        assert np.isneginf(column).any() and (column == 1e308).any()
    return tr


def negative_zero_trace():
    from resilest.plant import simulate

    tr = simulate(scenario_from_dict(scalar_scenario_doc(horizon=12)))
    tr.t[0] = tr.x[1, 0] = tr.ybar[2, 1] = tr.a[3, 2] = tr.bound[4] = -0.0
    return tr


@pytest.mark.parametrize("make_trace", [nonfinite_burst_trace, negative_zero_trace])
def test_trace_csv_bytes_match_per_element_reference(tmp_path, make_trace):
    tr = make_trace()
    out = tmp_path / "trace.csv"
    write_trace_csv(tr, out)
    assert out.read_bytes() == reference_trace_csv(tr).encode()


def test_trace_header_three_inertia_width():
    header = trace_header(6, 1, 5)
    assert header[:2] == ["k", "t"]
    assert header[-4:] == ["f", "lambda_mask", "branch", "bound"]
    assert len(header) == 2 + 6 + 6 + 1 + 5 + 5 + 4  # 29 columns


# ---------------------------------------------------------------------------
# CLI


def test_cli_analyze_three_inertia(tmp_path, capsys):
    model_file = write_json(tmp_path / "m.json", THREE_INERTIA_DOC)
    assert main(["analyze", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert "security_index: 3" in out
    assert "redundancy_degree: 2" in out
    assert "max_correctable_q: 1" in out


def test_cli_analyze_names_witness(tmp_path, capsys):
    model_file = write_json(tmp_path / "m.json", THREE_INERTIA_DOC)
    assert main(["analyze", "--model", model_file]) == 0
    assert "witness: {1,2,3}\n" in capsys.readouterr().out
    assert main(["analyze", "--model", model_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["security_index"], doc["witness"]) == (3, [1, 2, 3])


def test_cli_analyze_json_output(tmp_path, capsys):
    model_file = write_json(tmp_path / "m.json", SCALAR_MODEL_DOC)
    assert main(["analyze", "--model", model_file, "--q", "1", "--r", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["security_index"] == 3
    assert doc["constants"]["1"]["kappa_c"] == pytest.approx(3.0)
    fields = [f.name for f in dataclasses.fields(RobustnessConstants)]
    assert list(doc["constants"]["1"]) == fields


def test_cli_analyze_unobservable_model(tmp_path, capsys):
    doc = {"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[0.0], [0.0]],
           "C": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
    model_file = write_json(tmp_path / "m.json", doc)
    assert main(["analyze", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert "security_index: 0" in out
    assert "witness: {}" in out
    assert "redundancy_degree: not observable" in out


def test_cli_analyze_invalid_model_exit_2(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text("{not json")
    assert main(["analyze", "--model", str(bad)]) == 2


@pytest.mark.parametrize(("field", "value", "message"), [
    ("A", [[math.nan]], "A must be finite"),
    ("B", [[math.inf]], "B must be finite"),
    ("C", [[1.0], [-math.inf], [1.0]], "C must be finite"),
    ("d_max", math.inf, "d_max=inf"),
    ("n_max", math.nan, "n_max=nan"),
    ("d_max", -1.0, "d_max=-1.0"),
])
def test_cli_analyze_rejects_nonfinite_model_exit_2(tmp_path, capsys, field, value, message):
    doc = dict(SCALAR_MODEL_DOC, **{field: value})
    model_file = write_json(tmp_path / "m.json", doc)
    assert main(["analyze", "--model", model_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("doc", [
    [SCALAR_MODEL_DOC],
    dict(SCALAR_MODEL_DOC, n=None),
    dict(THREE_INERTIA_DOC, T_s=[1]),
], ids=["top-level-list", "n-null", "T_s-list"])
def test_cli_analyze_malformed_model_shape_exit_2(tmp_path, capsys, doc):
    assert main(["analyze", "--model", write_json(tmp_path / "m.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid model: malformed model file")


@pytest.mark.parametrize(("q", "code", "message"), [
    ("3", 3, "needs p >= 2q+1 sensors, got p=5"),
    ("2", 3, "correctability violated"),
    ("0", 2, "constants_q must be at least 1, got 0"),
    ("-1", 2, "constants_q must be at least 1, got -1"),
], ids=["q3-too-few-sensors", "q2-not-correctable", "q0", "q-1"])
def test_cli_analyze_refuses_a_requested_q_it_cannot_serve(tmp_path, capsys, q, code, message):
    model_file = write_json(tmp_path / "m.json", THREE_INERTIA_DOC)
    assert main(["analyze", "--model", model_file, "--q", q]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_analyze_constants_undefined_exit_3(tmp_path, capsys):
    doc = {"A": [[1.0]], "B": [[0.0]], "C": [[1.0], [1.0], [0.0]]}
    model_file = write_json(tmp_path / "m.json", doc)
    assert main(["analyze", "--model", model_file, "--q", "1"]) == 3
    assert "correctability" in capsys.readouterr().err


def test_cli_decode_scalar(tmp_path, capsys):
    phi = tmp_path / "phi.csv"
    phi.write_text("1\n1\n1\n")
    z = tmp_path / "z.csv"
    z.write_text("5\n5\n12\n")
    assert main(["decode", "--phi", str(phi), "--z", str(z), "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "x_hat: 5" in out
    assert "support: {3}" in out


def test_cli_decode_clean_empty_support(tmp_path, capsys):
    phi = tmp_path / "phi.csv"
    phi.write_text("1\n1\n1\n")
    z = tmp_path / "z.csv"
    z.write_text("4\n4\n4\n")
    assert main(["decode", "--phi", str(phi), "--z", str(z), "--q", "1"]) == 0
    assert "support: {}" in capsys.readouterr().out


def test_cli_decode_refuses_impossible_q(tmp_path, capsys):
    phi = tmp_path / "phi.csv"
    phi.write_text("1\n1\n1\n")
    z = tmp_path / "z.csv"
    z.write_text("5\n5\n12\n")
    argv = ["decode", "--phi", str(phi), "--z", str(z), "--q", "2"]
    assert main(argv) == 3
    assert "correctab" in capsys.readouterr().err
    assert main(argv + ["--vmax", "0.1"]) == 3  # the constants need p >= 2q + 1
    assert "needs p >= 2q+1 sensors" in capsys.readouterr().err


def test_cli_decode_certifies_a_coding_matrix_whose_gram_sums_overflow(tmp_path, capsys):
    # entries near 1e200 are finite, but their Gram sums overflow: the constants' scans must
    # send those sums to the SVD, not to eigvalsh, which fails to converge on them.  The clean
    # measurement's round-off misfits (about 1e185) square to inf, yet no block violates:
    # without a noise bound, nor under one at that scale.  Under v_max = 0.1 every block
    # violates theta v_max, and the estimate is not certified.  No warning reaches stderr
    entries = 1e200 * np.random.default_rng(1).standard_normal((15, 3))
    phi, z = tmp_path / "phi.csv", tmp_path / "z.csv"
    np.savetxt(phi, entries, delimiter=",", fmt="%.17g")
    np.savetxt(z, entries @ np.ones(3), fmt="%.17g")
    argv = ["decode", "--phi", str(phi), "--z", str(z), "--q", "1"]
    runs = {(): ("{}", "true"), ("--vmax", "1e190"): ("{}", "true"),
            ("--vmax", "0.1"): ("{1,2,3,4,5}", "false")}
    for vmax, want in runs.items():
        assert main(argv + list(vmax)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = dict(line.split(": ", 1) for line in captured.out.splitlines())
        assert (out["support"], out["certified"]) == want
        assert ("error_bound" in out) == bool(vmax)


@pytest.mark.parametrize("vmax", ["nan", "inf", "-1"])
def test_cli_decode_rejects_a_nonfinite_or_negative_vmax(tmp_path, capsys, vmax):
    phi = tmp_path / "phi.csv"
    phi.write_text("1\n1\n1\n")
    z = tmp_path / "z.csv"
    z.write_text("5\n5\n12\n")
    argv = ["decode", "--phi", str(phi), "--z", str(z), "--q", "1", "--vmax", vmax]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"v_max must be finite and nonnegative, got {float(vmax)}" in captured.err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e308"])
def test_cli_decode_isolates_nonfinite_measurement(tmp_path, capsys, bad):
    phi = tmp_path / "phi.csv"
    phi.write_text("1\n1\n1\n")
    z = tmp_path / "z.csv"
    z.write_text(f"5\n5\n{bad}\n")
    assert main(["decode", "--phi", str(phi), "--z", str(z), "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "x_hat: 5\nsupport: {3}\nobjective: 1\ncertified: true\n" in out


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_decode_rejects_nonfinite_phi_exit_2(tmp_path, capsys, bad):
    phi = tmp_path / "phi.csv"
    phi.write_text(f"1\n1\n{bad}\n")
    z = tmp_path / "z.csv"
    z.write_text("5\n5\n5\n")
    assert main(["decode", "--phi", str(phi), "--z", str(z), "--q", "1"]) == 2
    assert "coding matrix entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(("phi_text", "z_text", "message"), [
    (",\n,\n,\n", "5\n5\n5\n", "phi.csv: no value at line 1"),
    ("1,0\n0,1\n1,0\n0,1\n1,0\n0,1\n", "5\n5\n5\n5\n5\n",
     "measurement length 5 != coding matrix rows 6"),
], ids=["phi-lines-without-values", "z-one-value-short"])
def test_cli_decode_rejects_malformed_input_exit_2(tmp_path, capsys, phi_text, z_text, message):
    # a phi of "," lines would read as width 0, which the block count divides by
    phi = tmp_path / "phi.csv"
    phi.write_text(phi_text)
    z = tmp_path / "z.csv"
    z.write_text(z_text)
    assert main(["decode", "--phi", str(phi), "--z", str(z), "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: invalid input: ") and message in captured.err


def test_cli_simulate(tmp_path, capsys):
    sfile = write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=40))
    out = tmp_path / "t.csv"
    assert main(["simulate", "--scenario", sfile, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "steps=40" in stdout
    assert out.exists()


# a slow observer: three copies of one sensor on a near-integrator pair, poles at 0.9999**2,
# whose envelope powering runs about 116,000 powers per sensor before it settles
SLOW_OBSERVER_DOC = {
    "model": {"A": [[0.9999, 1.0], [0.0, 0.9999]], "B": [[0.0], [1.0]],
              "C": [[1.0, 0.0]] * 3, "d_max": 0.001, "n_max": 0.001, "T_s": 0.01},
    "horizon": 5, "q": 1, "r": 1,
    "observer": {"poles": {"mode": "contract", "factor": 0.9999}, "x0_max": 1.0},
}


def test_cli_simulate_reports_an_envelope_that_does_not_settle(tmp_path, capsys, monkeypatch):
    from resilest import observers

    monkeypatch.setattr(observers, "_POWER_CAP", 1000)
    sfile = write_json(tmp_path / "s.json", SLOW_OBSERVER_DOC)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("error: invalid scenario: sensor 1: ")
    assert "within 1000 powers" in captured.err
    assert not (tmp_path / "t.csv").exists()


def test_cli_simulate_rejects_assumption_violation(tmp_path, capsys):
    doc = scalar_scenario_doc()
    doc["attacks"].append({"sensor": 2, "start_step": 5, "end_step": None,
                           "waveform": {"kind": "constant", "value": 1.0}})
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    assert "sparsity" in capsys.readouterr().err


def test_cli_simulate_rejects_waveform_without_parameters(tmp_path, capsys):
    doc = scalar_scenario_doc()
    doc["attacks"][0]["waveform"] = {"kind": "constant"}
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    assert "value" in capsys.readouterr().err


def test_cli_simulate_random_waveform_reads_string_bounds(tmp_path, capsys):
    columns = []
    for lo, hi in ((-1.0, 1.0), ("-1", "1")):
        doc = scalar_scenario_doc(horizon=40)
        doc["attacks"][0] = {"sensor": 1, "start_step": 10, "end_step": None,
                             "waveform": {"kind": "random", "lo": lo, "hi": hi}}
        out = tmp_path / f"t{len(columns)}.csv"
        assert main(["simulate", "--scenario", write_json(tmp_path / "s.json", doc),
                     "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            columns.append([row["a_1"] for row in csv.DictReader(handle)])
    assert "Traceback" not in capsys.readouterr().err
    assert columns[0] == columns[1] and len(set(columns[0])) > 2


@pytest.mark.parametrize(("field", "doc_path", "value"), [
    ("recert_every", (), "10"),
    ("recert_every", (), -3),
    ("recert_every", (), 0),
    ("recert_every", (), 2.5),
    ("recert_every", (), True),
    ("horizon", (), 2.5),
    ("horizon", (), "10"),
    ("horizon", (), None),
    ("q", (), True),
    ("r", (), True),
    ("r", (), 1.0),
    ("seed", ("noise",), 1.5),
    ("sensor", ("attacks", 0), 1.9),
    ("start_step", ("attacks", 0), 0.5),
    ("end_step", ("attacks", 0), 20.5),
    ("reference_onset", ("controller",), 0.5),
    ("output_index", ("controller",), True),
    ("x0", (), [math.nan]),
    ("n_max", ("noise",), math.nan),
    ("d_max", ("noise",), math.inf),
    ("x0_max", ("observer",), math.nan),
    ("x0_max", ("observer",), -1.0),
])
def test_cli_simulate_rejects_bad_scenario_numbers(tmp_path, capsys, field, doc_path, value):
    # integer fields take integral numbers that are not bools, and none is truncated
    doc = scalar_scenario_doc(horizon=50, controller={"K": [[-0.1]], "K_I": [0.0]})
    section = doc
    for key in doc_path:
        section = section[key] if isinstance(key, int) else section.setdefault(key, {})
    section[field] = value
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("T_s", [math.nan, math.inf, 0.0, -1.0])
def test_cli_simulate_rejects_a_bad_sampling_period(tmp_path, capsys, T_s):
    # the sinusoid reads step * dt: a NaN period would inject sin(nan)
    doc = scalar_scenario_doc(horizon=5)
    doc["model"]["T_s"] = T_s
    doc["attacks"][0]["waveform"] = {"kind": "sinusoid", "amplitude": 1.0, "freq_hz": 2.0}
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid scenario: sampling period")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("p", [63, 64])
def test_cli_simulate_writes_a_trusted_set_of_any_width(tmp_path, capsys, p):
    # lambda_mask is an integer of any width: 63 sensors fill an int64, and with 64 the
    # attacked sensor 64 leaves bit 63 clear in a mask that only a wider integer holds
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    model = {"n": 4, "m": 1, "p": p, "A": A.tolist(), "B": rng.standard_normal((4, 1)).tolist(),
             "C": rng.standard_normal((p, 4)).tolist(), "d_max": 0.001, "n_max": 0.001}
    attack = {"sensor": p, "start_step": 1, "waveform": {"kind": "constant", "value": 1e5}}
    doc = scalar_scenario_doc(model=model, horizon=4, x0=[0.0] * 4, attacks=[attack])
    sfile, out = write_json(tmp_path / "s.json", doc), tmp_path / "t.csv"
    assert main(["simulate", "--scenario", sfile, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as handle:
        masks = [int(row["lambda_mask"]) for row in csv.DictReader(handle)]
    assert masks[0] == 2**p - 1 and masks[-1] == 2**p - 1 - 2**(p - 1)


@pytest.mark.parametrize("T_s", [math.nan, math.inf])
def test_cli_analyze_rejects_a_nonfinite_builtin_sampling_period(tmp_path, capsys, T_s):
    model_file = write_json(tmp_path / "m.json", dict(THREE_INERTIA_DOC, T_s=T_s))
    assert main(["analyze", "--model", model_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sampling period" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    scalar_scenario_doc(attacks=5),
    scalar_scenario_doc(observer="x"),
    scalar_scenario_doc(noise=[1]),
    scalar_scenario_doc(controller=[1]),
    scalar_scenario_doc(observer={"poles": {"mode": "explicit", "sets": 3}}),
    [scalar_scenario_doc()],
], ids=["attacks-int", "observer-str", "noise-list", "controller-list", "pole-sets-int",
        "top-level-list"])
def test_cli_simulate_malformed_scenario_shape_exit_2(tmp_path, capsys, doc):
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid scenario: malformed scenario file")
    assert not (tmp_path / "t.csv").exists()


def test_cli_simulate_unwritable_output_exit_2(tmp_path, capsys):
    sfile = write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=20))
    out = tmp_path / "missing_dir" / "t.csv"
    assert main(["simulate", "--scenario", sfile, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write trace")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing_dir/t.csv", "."])
def test_cli_simulate_checks_output_before_running(tmp_path, capsys, monkeypatch, where):
    def never(scenario):
        raise AssertionError("simulate ran although --out cannot be written")

    monkeypatch.setattr("resilest.cli.simulate", never)
    sfile = write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=20))
    out = tmp_path / where  # a path below a missing directory, or a directory itself
    assert main(["simulate", "--scenario", sfile, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write trace")
    assert captured.err.count("\n") == 1


def test_cli_demo_output_over_a_file_exit_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep")
    assert main(["demo", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write demo output")
    assert captured.err.count("\n") == 1
    assert target.read_text() == "keep"


@pytest.mark.parametrize("name", ["trace.csv", "tracking.svg"])
def test_cli_demo_checks_outputs_before_running(tmp_path, capsys, monkeypatch, name):
    def never(scenario):
        raise AssertionError("simulate ran although a demo output cannot be written")

    monkeypatch.setattr("resilest.cli.simulate", never)
    (tmp_path / name).mkdir()
    assert main(["demo", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write demo output")
    assert captured.err.count("\n") == 1


def test_cli_demo_write_failure_after_run_exit_2(tmp_path, capsys, monkeypatch, demo_run):
    def refuse(path, *args):
        raise PermissionError(f"cannot write {path}")

    monkeypatch.setattr("resilest.cli.simulate", lambda scenario: demo_run["trace"])
    monkeypatch.setattr("resilest.cli.write_svg_plot", refuse)
    assert main(["demo", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write demo output")
    assert captured.err.count("\n") == 1


def test_scenario_accepts_positive_integer_recert_every():
    assert scenario_from_dict(scalar_scenario_doc(recert_every=10)).recert_every == 10
    assert scenario_from_dict(scalar_scenario_doc(recert_every=None)).recert_every is None


def test_cli_simulate_seed_override(tmp_path):
    sfile = write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=30))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", sfile, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["simulate", "--scenario", sfile, "--out", str(out2), "--seed", "2"]) == 0
    assert out1.read_text() != out2.read_text()


def test_cli_simulate_demo_plant_at_100us_fails_pole_placement(tmp_path, capsys):
    doc = copy.deepcopy(DEMO_SCENARIO)
    doc["model"]["T_s"] = 1e-4
    doc["horizon"] = 10
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "pole placement failed for sensor 1: worst eigenvalue mismatch" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(("field", "value", "message"), [
    ("output_index", 9, "controller output_index 9 exceeds p=5"),
    ("K", [[-2.32, -0.25, 2.47]], "controller K must be m x n = (1, 6), got (1, 3)"),
])
def test_cli_simulate_rejects_controller_outside_the_model(tmp_path, capsys, field, value, message):
    doc = copy.deepcopy(DEMO_SCENARIO)
    doc["horizon"] = 10
    doc["controller"][field] = value
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_cli_demo_outputs(demo_run):
    outdir = demo_run["dir"]
    for name in ("scenario.json", "trace.csv", "attacked_measurement.svg",
                 "angle1_estimate.svg", "rate2_estimate.svg", "tracking.svg"):
        assert (outdir / name).exists(), name
    for name in ("attacked_measurement.svg", "angle1_estimate.svg",
                 "rate2_estimate.svg", "tracking.svg"):
        body = (outdir / name).read_text()
        assert "<polyline" in body
        assert "points=" in body and len(body) > 1000


def test_cli_demo_scenario_revalidates(demo_run):
    # the emitted scenario file loads and validates cleanly
    demo_run["scenario"].validate()
    trace = demo_run["trace"]
    header_cols = trace_header(6, 1, 5)
    lines = (demo_run["dir"] / "trace.csv").read_text().strip().split("\n")
    assert lines[0].split(",") == header_cols
    assert len(lines) == 1 + trace.horizon


def test_cli_demo_rerun_replaces_outputs(tmp_path, capsys):
    outdir = tmp_path / "demo"
    assert main(["demo", "--out", str(outdir)]) == 0
    first = {name: (outdir / name).read_bytes() for name in DEMO_OUTPUT_FILES}
    # a hard link to each first-run file, whose shared inode is then marked
    keep = tmp_path / "keep"
    keep.mkdir()
    for name in DEMO_OUTPUT_FILES:
        os.link(outdir / name, keep / name)
        (keep / name).write_bytes(b"first run " + name.encode())
    assert main(["demo", "--out", str(outdir)]) == 0
    capsys.readouterr()
    for name in DEMO_OUTPUT_FILES:
        assert (outdir / name).read_bytes() == first[name], name
        assert (keep / name).read_bytes() == b"first run " + name.encode(), name
        assert not os.path.samefile(outdir / name, keep / name), name


def test_cli_simulate_writes_through_devices_and_fifos(tmp_path, capsys, monkeypatch):
    # only a regular file is unlinked; a device, a FIFO or a symlink to either
    # is written as it stands.  The unlink is refused here, so a regression
    # fails the test without touching the device node.
    unlinked = []

    def refuse_unlink(path, *args, **kwargs):
        unlinked.append(str(path))
        raise AssertionError(f"unlink({path}) attempted")

    monkeypatch.setattr(os, "unlink", refuse_unlink)
    sfile = write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=40))
    assert main(["simulate", "--scenario", sfile, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    link = tmp_path / "null_link.csv"
    link.symlink_to(os.devnull)
    assert main(["simulate", "--scenario", sfile, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == os.devnull

    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    assert main(["simulate", "--scenario", sfile, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    lines = received[0].decode().strip().split("\n")
    assert lines[0].split(",") == trace_header(1, 1, 3) and len(lines) == 41
    assert unlinked == []
    capsys.readouterr()


def test_open_fresh_truncates_in_place_when_unlink_is_refused(tmp_path, monkeypatch):
    # an existing writable file in a directory that refuses the unlink (a
    # read-only directory, for a user other than root) is written in place
    target = tmp_path / "trace.csv"
    target.write_text("old contents, longer than the new ones\n")
    twin = tmp_path / "twin.csv"
    os.link(target, twin)

    def refuse_unlink(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse_unlink)
    with open_fresh(target) as fh:
        fh.write("new\n")
    assert target.read_text() == "new\n"
    assert os.path.samefile(target, twin)


def test_cli_env_eps_override(tmp_path, monkeypatch, capsys, three_inertia):
    # sensor 1 attacked on the three-inertia monomial matrix, which is 1-error
    # correctable at the default tolerance and not at 1e-6: the setting reaches the
    # decoder, and nothing of it outlives the call that read it
    g = observability_matrix(three_inertia).entries
    z = g @ np.ones(6)
    z[:6] += 20.0
    np.savetxt(tmp_path / "phi.csv", g, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "z.csv", z, fmt="%.17g")
    argv = ["decode", "--phi", str(tmp_path / "phi.csv"), "--z", str(tmp_path / "z.csv"),
            "--q", "1"]
    monkeypatch.setenv("RESILEST_EPS", "1e-6")
    assert main(argv) == 3
    assert "not 1-error correctable" in capsys.readouterr().err
    monkeypatch.delenv("RESILEST_EPS")
    assert main(argv) == 0
    assert "support: {1}\nobjective: 1\ncertified: true\n" in capsys.readouterr().out
    for bad in ("banana", "0", "1", "-1e-6", "nan"):
        monkeypatch.setenv("RESILEST_EPS", bad)
        assert main(argv) == 2
        assert "error: bad RESILEST_EPS: " in capsys.readouterr().err


def test_cli_env_eps_reaches_analyze(tmp_path, monkeypatch, capsys):
    # A = I/2: each sensor observes only the direction of its own row, and the rows
    # of sensors 1 and 2 lie 1e-7 apart, a pair of full rank at the default
    # tolerance and not at 1e-6
    doc = {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[0.0], [0.0]],
           "C": [[1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]]}
    model_file = write_json(tmp_path / "m.json", doc)
    monkeypatch.setenv("RESILEST_EPS", "1e-6")
    assert main(["analyze", "--model", model_file]) == 0
    assert capsys.readouterr().out.startswith("security_index: 1\nwitness: {3}\n")
    monkeypatch.delenv("RESILEST_EPS")
    assert main(["analyze", "--model", model_file]) == 0
    assert capsys.readouterr().out.startswith("security_index: 2\nwitness: {2,3}\n")
