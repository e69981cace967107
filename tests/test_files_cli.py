import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from resilest.analysis import RobustnessConstants
from resilest.cli import DEMO_SCENARIO, main
from resilest.files import (
    load_model,
    load_scenario,
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
    assert main(["decode", "--phi", str(phi), "--z", str(z), "--q", "2"]) == 3
    assert "correctab" in capsys.readouterr().err


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


def test_cli_simulate(tmp_path, capsys):
    sfile = write_json(tmp_path / "s.json", scalar_scenario_doc(horizon=40))
    out = tmp_path / "t.csv"
    assert main(["simulate", "--scenario", sfile, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "steps=40" in stdout
    assert out.exists()


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


@pytest.mark.parametrize(("field", "doc_path", "value"), [
    ("recert_every", (), "10"),
    ("recert_every", (), -3),
    ("recert_every", (), 0),
    ("recert_every", (), 2.5),
    ("recert_every", (), True),
    ("x0", (), [math.nan]),
    ("n_max", ("noise",), math.nan),
    ("d_max", ("noise",), math.inf),
    ("x0_max", ("observer",), math.nan),
    ("x0_max", ("observer",), -1.0),
])
def test_cli_simulate_rejects_bad_scenario_numbers(tmp_path, capsys, field, doc_path, value):
    doc = scalar_scenario_doc(horizon=50)
    section = doc
    for key in doc_path:
        section = section.setdefault(key, {})
    section[field] = value
    sfile = write_json(tmp_path / "s.json", doc)
    assert main(["simulate", "--scenario", sfile, "--out", str(tmp_path / "t.csv")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("doc", [
    scalar_scenario_doc(attacks=5),
    scalar_scenario_doc(observer="x"),
    scalar_scenario_doc(noise=[1]),
    scalar_scenario_doc(controller=[1]),
    scalar_scenario_doc(horizon=None),
    scalar_scenario_doc(observer={"poles": {"mode": "explicit", "sets": 3}}),
    [scalar_scenario_doc()],
], ids=["attacks-int", "observer-str", "noise-list", "controller-list", "horizon-null",
        "pole-sets-int", "top-level-list"])
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


def test_cli_env_eps_override(tmp_path, monkeypatch, capsys):
    import resilest._linalg as lin

    monkeypatch.setenv("RESILEST_EPS", "1e-9")
    model_file = write_json(tmp_path / "m.json", SCALAR_MODEL_DOC)
    try:
        assert main(["analyze", "--model", model_file]) == 0
        assert lin.get_eps_rel() == 1e-9
    finally:
        lin.set_eps_rel(lin.DEFAULT_EPS_REL)
    monkeypatch.setenv("RESILEST_EPS", "banana")
    assert main(["analyze", "--model", model_file]) == 2
