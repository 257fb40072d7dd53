import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockgate
from fockgate.cli import main, parse_qubit
from fockgate.gate import NetlistError
from fockgate.design import CouplerPhysics, synthesize_imperfect_elements
from fockgate.gate import default_netlist, extract_gate
from fockgate.io import (
    format_number,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    physics_from_dict,
    physics_to_dict,
    render_csv,
    save_netlist,
    save_physics,
)


# -- serialization round-trips ---------------------------------------------------


def test_netlist_json_round_trip(tmp_path):
    netlist = default_netlist()
    path = tmp_path / "netlist.json"
    save_netlist(netlist, path)
    loaded = load_netlist(path)
    assert loaded == netlist
    # loaded netlist drives the simulation identically
    res = extract_gate(loaded, math.pi / 2)
    assert res.fidelity >= 1 - 1e-9


def test_netlist_waveplate_matrix_round_trip():
    netlist = default_netlist()
    data = netlist_to_dict(netlist)
    for el in data["elements"]:
        if el["name"] == "HWP2":
            el["params"]["matrix"] = [
                [[1 / math.sqrt(2), 0.0], [1 / math.sqrt(2), 0.0]],
                [[1 / math.sqrt(2), 0.0], [-1 / math.sqrt(2), 0.0]],
            ]
            del el["params"]["preset"]
    rebuilt = netlist_from_dict(data)
    res = extract_gate(rebuilt, 0.8)
    assert res.fidelity >= 1 - 1e-9


def test_physics_json_round_trip(tmp_path):
    physics = CouplerPhysics().with_sensitivities("height", 0.003, 0.001)
    path = tmp_path / "physics.json"
    save_physics(physics, path)
    data = json.loads(path.read_text())
    assert data["beat_um"]["H"] == 35.80
    assert data["sensitivities_um_per_nm"]["height"]["V"] == 0.001
    loaded = physics_from_dict(data)
    assert loaded == physics
    assert set(data) == {
        "beat_um", "coupler_lengths_um", "sensitivities_um_per_nm", "notch_anchors"
    }


def test_physics_keys_left_out_keep_their_defaults():
    partial = {"beat_um": {"V": 8.0}, "sensitivities_um_per_nm": {"gap": {"H": 0.002}}}
    expected = CouplerPhysics(beat_v=8.0).with_sensitivities("gap", 0.002, 0.0)
    assert physics_from_dict(partial) == expected
    assert physics_from_dict({}) == CouplerPhysics()


BAD_PHYSICS = {
    "document_not_object": [1, 2],
    "section_not_object": {"beat_um": 5},
    "unknown_polarization_key": {"beat_um": {"h": 30}},
    "unknown_dimension": {"sensitivities_um_per_nm": {"length": {"H": 0.1}}},
    "nan_beat": {"beat_um": {"H": math.nan}},
    "nan_sensitivity": {"sensitivities_um_per_nm": {"width": {"H": math.nan, "V": 0.004}}},
    "negative_coupler_length": {"coupler_lengths_um": {"PBS1": -70.72}},
    "notch_conversion_7": {
        "notch_anchors": [{"length_um": 0.75, "input_pol": "V", "conversion": 7.0}]
    },
    "unknown_anchor_key": {
        "notch_anchors": [{"length_um": 0.75, "input_pol": "V", "conversion": 0.25, "q": 1}]
    },
    "anchors_not_list": {"notch_anchors": {"length_um": 0.75}},
    "removed_geometry_nm": {"geometry_nm": {"width": 350.0, "height": 350.0, "gap": 250.0}},
    "removed_wavelength_um": {"wavelength_um": 1.55},
    "removed_ring_radius_um": {"ring_radius_um": 8.0},
    "removed_notch_nm": {"notch_nm": {"width": 175.0, "height": 175.0}},
    # the netlist file's number rule: a JSON int or float, not a string or a bool
    "string_beat": {"beat_um": {"H": "35.8"}},
    "bool_beat": {"beat_um": {"V": True}},
    "string_sensitivity": {"sensitivities_um_per_nm": {"width": {"H": "0.004", "V": 0.003}}},
    "bool_coupler_length": {"coupler_lengths_um": {"PBS1": True}},
    "string_anchor_length": {
        "notch_anchors": [{"length_um": "0.75", "input_pol": "V", "conversion": 0.25}]
    },
    "oversized_int_beat": {"beat_um": {"H": 10**400}},  # too large for a float
}


@pytest.mark.parametrize("doc", BAD_PHYSICS.values(), ids=BAD_PHYSICS.keys())
@pytest.mark.parametrize("command", [["design", "--element", "pbs"], ["sweep", "--dimension", "width"]])
def test_bad_physics_exits_3(doc, command, tmp_path, capsys):
    path = tmp_path / "physics.json"
    path.write_text(json.dumps(doc))
    code = main(command + ["--physics", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("validation error:")
    assert captured.out == ""


# -- formatting -------------------------------------------------------------------


def test_format_number_12_significant_digits():
    assert format_number(1 / 48) == "0.0208333333333"
    assert format_number(70.72) == "70.72"
    assert format_number(1.0) == "1.0"
    # equal at 12 digits, so rendered alike
    assert format_number(0.9999999999999998) == "1.0"
    assert format_number(-1.0000000000001) == "-1.0"


def test_render_csv_lf_and_header():
    text = render_csv(["a", "b"], [[1.0, 0.5], [2.0, 1 / 3]])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert "\r" not in text
    assert text.endswith("\n")


# -- CLI behavior -----------------------------------------------------------------


def test_parse_qubit():
    assert parse_qubit("1,0:0,0") == (1 + 0j, 0j)
    assert parse_qubit("0.6,0:0,0.8") == (0.6 + 0j, 0.8j)
    # |a|^2 + |b|^2 deviates by 2.1e-14, within the 1e-12 qubit_state
    # takes: returned as written
    assert parse_qubit("0.70710678118654,0:0.70710678118654,0") == (
        0.70710678118654 + 0j, 0.70710678118654 + 0j
    )


def test_parse_qubit_normalizes_8_digit_amplitudes():
    alpha, beta = parse_qubit("0.70710678,0:0,-0.70710678")
    assert abs(alpha - 0.7071067811865476) <= 1e-12
    assert abs(beta + 0.7071067811865476j) <= 1e-12


def test_simulate_accepts_8_digit_amplitudes(tmp_path, capsys):
    exact = "0.7071067811865476,0:0.7071067811865476,0"
    records = []
    for control in (exact, "0.70710678,0:0.70710678,0"):
        out = tmp_path / "record.csv"
        code = main(["simulate", "--phi", "0.3", "--target", "0.6,0:0,0.8",
                     "--control", control, "--output", str(out)])
        assert code == 0
        records.append([float(x) for x in out.read_text().splitlines()[1].split(",")])
    assert max(abs(a - b) for a, b in zip(*records)) <= 1e-12


def test_simulate_amplitudes_far_from_unit_norm_exit_2(capsys):
    code = main(["simulate", "--phi", "0", "--target", "1,0:0,0",
                 "--control", "0.7071,0:0.7071,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: qubit amplitudes not normalized: |a|^2+|b|^2 deviates by")


def test_simulate_pi_on_11(capsys):
    code = main(
        ["simulate", "--phi", "3.141592653589793",
         "--target", "0,0:1,0", "--control", "0,0:1,0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0.0208333333333" in out
    assert "3.14159265359" in out  # reported phase


def test_simulate_identity_on_00(capsys):
    code = main(["simulate", "--phi", "0", "--target", "1,0:0,0", "--control", "1,0:0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T:H C:H" in out  # heralded |00> output term


def test_simulate_unreadable_netlist_exits_2(capsys):
    code = main(
        ["simulate", "--phi", "0", "--target", "1,0:0,0",
         "--control", "1,0:0,0", "--netlist", "/no/such/file.json"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "/no/such/file.json" in err


FILE_FLAG_ARGS = {
    "netlist": ["truth-table", "--phi", "0", "--netlist"],
    "physics": ["design", "--element", "pbs", "--physics"],
}


@pytest.mark.parametrize("path", ["/no/such/file.json", "x" * 300], ids=["missing", "over_long"])
@pytest.mark.parametrize("kind", FILE_FLAG_ARGS)
def test_unreadable_input_file_exits_2(kind, path, capsys):
    code = main(FILE_FLAG_ARGS[kind] + [path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {kind} file not readable: {path}\n"
    assert captured.out == ""


def test_simulate_bad_amplitudes_exit_2(capsys):
    code = main(["simulate", "--phi", "0", "--target", "nope", "--control", "1,0:0,0"])
    assert code == 2


NON_FINITE_ARGS = [
    ["truth-table", "--phi", "inf"],
    ["truth-table", "--phi", "nan"],
    ["simulate", "--phi", "nan", "--target=1,0:0,0", "--control=1,0:0,0"],
    ["simulate", "--phi", "0", "--target=nan,0:0,0", "--control=1,0:0,0"],
    ["simulate", "--phi", "0", "--target=1,0:0,0", "--control=1,0:0,inf"],
    ["sweep", "--dimension", "width", "--phi", "nan"],
    ["sweep", "--dimension", "width", "--step", "nan"],
    ["sweep", "--dimension", "width", "--range=-inf:10"],
    ["design", "--element", "pbs", "--range", "60:nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGS, ids=lambda a: " ".join(a))
def test_non_finite_numbers_exit_2(argv, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--physics", str(_physics_with_sensitivity(tmp_path))]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "finite" in err


BAD_RANGE_ARGS = [
    ["sweep", "--dimension", "width", "--step", "0"],
    ["sweep", "--dimension", "width", "--step", "-1"],
    ["sweep", "--dimension", "width", "--range=5:-5"],
    ["design", "--element", "pbs", "--range", "80:60"],
    ["design", "--element", "pbs", "--range=-5:60"],
    ["design", "--element", "f2", "--range", "90:80"],
    ["design", "--element", "pbs", "--count", "0"],
    ["design", "--element", "pbs", "--count=-1"],
    ["check", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", BAD_RANGE_ARGS, ids=lambda a: " ".join(a))
def test_bad_ranges_and_counts_exit_2(argv, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--physics", str(_physics_with_sensitivity(tmp_path))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


OVERSIZED_GRID_ARGS = {
    "design_pbs": (["design", "--element", "pbs", "--range", "0:1e308"], "scan points"),
    "design_f2": (["design", "--element", "f2", "--range", "0:1e308"], "V beats"),
    "sweep_range": (["sweep", "--dimension", "width", "--range=-1e300:1e300"], "10001 points"),
    "sweep_step": (["sweep", "--dimension", "width", "--step", "0.0019"], "10001 points"),
}


@pytest.mark.parametrize(
    "argv, message", OVERSIZED_GRID_ARGS.values(), ids=OVERSIZED_GRID_ARGS.keys()
)
def test_oversized_grids_exit_2(argv, message, tmp_path, capsys):
    # nonzero sensitivities, so a sweep fails on its grid and nothing else
    if argv[0] == "sweep":
        argv = argv + ["--physics", str(_physics_with_sensitivity(tmp_path))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert captured.out == ""


def _netlist_json(tmp_path, edit):
    data = netlist_to_dict(default_netlist())
    for el in data["elements"]:
        edit(el)
    path = tmp_path / "netlist.json"
    path.write_text(json.dumps(data))
    return path


def _drop_f1_t_h(el):
    if el["name"] == "F1":
        del el["params"]["t_h"]


def _f1_t_h_above_one(el):
    if el["name"] == "F1":
        el["params"]["t_h"] = 1.5


def _f1_t_h_string(el):
    if el["name"] == "F1":
        el["params"]["t_h"] = "half"


def _f1_bogus_key(el):
    if el["name"] == "F1":
        el["params"]["bogus"] = 1.0


def _f1_typo_t_hh(el):
    if el["name"] == "F1":
        el["params"]["t_hh"] = 0.5


def _f1_t_h_nan(el):
    if el["name"] == "F1":
        el["params"]["t_h"] = math.nan


def _f1_t_h_oversized_int(el):
    if el["name"] == "F1":
        el["params"]["t_h"] = 10**400  # too large for a float


def _f1_theta_h_list(el):
    # a list would load as a two-point batch of circuits
    if el["name"] == "F1":
        el["params"]["theta_h"] = [0.0, 0.1]


def _pbs1_ports_string(el):
    # a string would split into the ports "T" and "L"
    if el["name"] == "PBS1":
        el["ports"] = "TL"


def _det_rotated_string(el):
    if el["name"] == "DET":
        el["params"]["rotated"] = "no"


def _near_unitary_hadamards(el):
    # each plate passes the per-element 1e-12 check on its own, but
    # perturbed circuits built from both are not unitary within 1e-12
    if el["name"] in ("HWP2", "HWP3"):
        a = (1 + 4.9e-13) / math.sqrt(2)
        del el["params"]["preset"]
        el["params"]["matrix"] = [[[a, 0.0], [a, 0.0]], [[a, 0.0], [-a, 0.0]]]


UNREALIZABLE_NETLISTS = {
    "missing_t_h": (_drop_f1_t_h, ["truth-table", "--phi", "0"], "'F1'"),
    "t_h_above_one": (_f1_t_h_above_one, ["truth-table", "--phi", "0"], "'F1'"),
    "t_h_string": (_f1_t_h_string, ["truth-table", "--phi", "0"], "'F1'"),
    "t_h_nan": (_f1_t_h_nan, ["truth-table", "--phi", "0"], "'F1'"),
    "t_h_oversized_int": (_f1_t_h_oversized_int, ["truth-table", "--phi", "0"], "'F1'"),
    "theta_h_list": (_f1_theta_h_list, ["truth-table", "--phi", "0"], "'theta_h'"),
    "rotated_string": (_det_rotated_string, ["truth-table", "--phi", "0"], "'rotated'"),
    "ports_string": (_pbs1_ports_string, ["truth-table", "--phi", "0"], "'PBS1' ports must be a list"),
    "near_unitary_hadamards": (_near_unitary_hadamards, ["check"], "not unitary"),
    "unknown_key_bogus": (_f1_bogus_key, ["truth-table", "--phi", "0"], "'bogus'"),
    "unknown_key_t_hh": (_f1_typo_t_hh, ["truth-table", "--phi", "0"], "'t_hh'"),
}


@pytest.mark.parametrize(
    "edit, argv, message",
    UNREALIZABLE_NETLISTS.values(),
    ids=UNREALIZABLE_NETLISTS.keys(),
)
def test_unrealizable_netlist_exits_3(edit, argv, message, tmp_path, capsys):
    path = _netlist_json(tmp_path, edit)
    code = main(argv + ["--netlist", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validation error:")
    assert message in err


def test_unrealizable_netlist_fails_on_load(tmp_path):
    with pytest.raises(NetlistError, match="F1.*t_h"):
        load_netlist(_netlist_json(tmp_path, _drop_f1_t_h))


@pytest.mark.parametrize("count", [1.5, "1", math.nan, True])
def test_herald_count_must_be_an_integer(count):
    data = netlist_to_dict(default_netlist())
    data["herald"][0]["count"] = count
    with pytest.raises(NetlistError, match="count"):
        netlist_from_dict(data)


def test_save_netlist_rejects_batched_parameters(tmp_path):
    netlist = default_netlist()
    physics = CouplerPhysics().with_sensitivities("width", 0.004, 0.004)
    batched = netlist.with_overrides(
        synthesize_imperfect_elements(netlist, physics, "width", np.array([0.0, 1.0]))
    )
    path = tmp_path / "batched.json"
    with pytest.raises(NetlistError, match="'PBS1' parameter 'theta_h'"):
        save_netlist(batched, path)
    assert not path.exists()


def test_element_arity_checked_on_load(tmp_path, capsys):
    data = netlist_to_dict(default_netlist())
    for el in data["elements"]:
        if el["name"] == "PBS1":
            el["ports"] = ["T"]
    path = tmp_path / "one_port_pbs.json"
    path.write_text(json.dumps(data))
    with pytest.raises(NetlistError, match="PBS1"):
        load_netlist(path)
    code = main(["truth-table", "--phi", "0", "--netlist", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "needs 2 port(s), got 1" in err


def test_invalid_netlist_contents_exit_3(tmp_path, capsys):
    for key, value, message in (
        ("ports", ["GHOST"], "GHOST"),
        # strings would split into the ports "T" and the pols "H", "V"
        ("ports", "T", "herald term 0 ports must be a list"),
        ("pols", "HV", "herald term 0 pols must be a list"),
    ):
        data = netlist_to_dict(default_netlist())
        data["herald"][0][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(
            ["simulate", "--phi", "0", "--target", "1,0:0,0",
             "--control", "1,0:0,0", "--netlist", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert message in err


def _herald_two_at_t(data):
    data["herald"][0]["count"] = 2


def _program_at_f1_loss(data):
    data["encoding"]["program"] = "F1_LOSS"


@pytest.mark.parametrize("edit", [_herald_two_at_t, _program_at_f1_loss],
                         ids=["herald_two_at_t", "program_at_f1_loss"])
@pytest.mark.parametrize("argv", [
    ["truth-table", "--phi", "0.5"],
    ["simulate", "--phi", "0.5", "--target", "1,0:0,0", "--control", "0,0:1,0"],
    ["check"],
    ["sweep", "--dimension", "width"],
], ids=["truth-table", "simulate", "check", "sweep"])
def test_netlist_heralding_no_logical_output_exits_3(edit, argv, tmp_path, capsys):
    data = netlist_to_dict(default_netlist())
    edit(data)
    netlist_path, physics_path = tmp_path / "netlist.json", tmp_path / "physics.json"
    netlist_path.write_text(json.dumps(data))
    physics_path.write_text(json.dumps(FUZZ_PHYSICS))
    if argv[0] == "sweep":
        argv = argv + ["--physics", str(physics_path)]
    code = main(argv + ["--netlist", str(netlist_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (
        "validation error: no basis input heralds a logical output (a zero operator)\n"
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_truth_table_quarter_phase(capsys):
    code = main(["truth-table", "--phi", str(math.pi / 2)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out
    probs = [line for line in out.splitlines() if line.strip().startswith("|")]
    assert any("0.0208333333333" in line for line in probs)


def test_truth_table_output_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["truth-table", "--phi", "1.0", "--output", str(a)]) == 0
    assert main(["truth-table", "--phi", "1.0", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("input_basis,herald_probability")


def test_design_pbs(capsys, tmp_path):
    out_csv = tmp_path / "pbs.csv"
    code = main(["design", "--element", "pbs", "--output", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "70.72" in out
    rows = out_csv.read_text().splitlines()
    assert rows[0].split(",")[0] == "rank"
    best_length = float(rows[1].split(",")[1])
    assert abs(best_length - 70.72) <= 0.8


def test_design_f1_reports_reference_delta(capsys):
    code = main(["design", "--element", "f1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "11.93" in out
    assert "12.0" in out  # reference value annotated


def test_design_f2_lists_83_20(capsys):
    code = main(["design", "--element", "f2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "83.2" in out
    assert "residual vs 1/3" in out


def test_design_f2_honours_count(capsys):
    code = main(["design", "--element", "f2", "--range", "0:60", "--count", "2"])
    out = capsys.readouterr().out
    assert code == 0
    ranked = [line for line in out.splitlines() if line.startswith("  #")]
    assert len(ranked) == 2
    assert ranked[0].startswith("  #1  L = 8.32 um")
    assert ranked[1].startswith("  #2  L = 16.64 um")


def test_sweep_requires_sensitivities(capsys):
    code = main(["sweep", "--dimension", "width"])
    err = capsys.readouterr().err
    assert code == 2
    assert "sensitivities" in err


def _physics_with_sensitivity(tmp_path):
    physics = CouplerPhysics().with_sensitivities("width", 0.004, 0.004)
    path = tmp_path / "phys.json"
    save_physics(physics, path)
    return path


def test_sweep_beyond_sensitivity_validity_exits_3(tmp_path, capsys):
    # the V beat (8.32 um) reaches zero within the default -10:10 nm range
    path = tmp_path / "phys.json"
    save_physics(CouplerPhysics().with_sensitivities("width", 0.004, -0.9), path)
    code = main(["sweep", "--dimension", "width", "--physics", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "non-positive" in captured.err
    assert captured.out == ""


# valid physics whose perturbed angles or beats do not fit in a float
EXTREME_SWEEP_PHYSICS = {
    "huge_coupler_length": (
        {"coupler_lengths_um": {"PBS1": 1e308},
         "sensitivities_um_per_nm": {"width": {"H": 0.004, "V": 0.004}}},
        "PBS1",
    ),
    "huge_beat_and_sensitivity": (
        {"beat_um": {"H": 1e308}, "sensitivities_um_per_nm": {"width": {"H": 1e308}}},
        "PBS1",
    ),
}


@pytest.mark.parametrize("doc, element", EXTREME_SWEEP_PHYSICS.values(), ids=EXTREME_SWEEP_PHYSICS.keys())
def test_sweep_of_extreme_physics_exits_3_naming_the_element(doc, element, tmp_path, capsys):
    path = tmp_path / "physics.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep", "--dimension", "width", "--physics", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("validation error:")
    assert f"element {element!r}" in captured.err and "delta" in captured.err
    assert captured.out == ""


def test_sweep_default_grid_and_plot_flag(tmp_path, capsys):
    phys = _physics_with_sensitivity(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--dimension", "width", "--physics", str(phys),
         "--output", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 22  # header + 21 rows
    assert lines[0].startswith("delta_nm,")
    assert not (tmp_path / "sweep.svg").exists()

    svg = tmp_path / "sweep.svg"
    code = main(
        ["sweep", "--dimension", "width", "--physics", str(phys),
         "--output", str(out_csv), "--plot", str(svg)]
    )
    assert code == 0
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("step, last", [("3", "8.0"), ("0.7", "9.6"), ("7", "4.0"), ("0.1", "10.0")])
def test_sweep_grid_ends_at_or_below_hi(step, last, tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--dimension", "width", "--physics", str(_physics_with_sensitivity(tmp_path))]
    assert main(args + ["--step", step, "--output", str(out)]) == 0
    deltas = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert deltas[0] == "-10.0"
    assert deltas[-1] == last


def test_sweep_output_byte_identical(tmp_path):
    phys = _physics_with_sensitivity(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--dimension", "width", "--physics", str(phys), "--step", "5"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_passes_on_default_netlist(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 8
    assert "FAIL" not in out


def _unrotated_detector_netlist(tmp_path):
    # DET measures its port unrotated, so the |00> input never heralds
    data = netlist_to_dict(default_netlist())
    for el in data["elements"]:
        if el["name"] == "DET":
            del el["params"]["rotated"]
    path = tmp_path / "unrotated.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["truth-table", "--phi", "0.5"],
        ["simulate", "--phi", "0.5", "--target", "1,0:0,0", "--control", "1,0:0,0"],
    ],
    ids=["truth-table", "simulate"],
)
def test_undefined_phase_is_reported_quietly(argv, tmp_path, capsys):
    code = main(argv + ["--netlist", _unrotated_detector_netlist(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "controlled phase = undefined (|00> never heralds)" in captured.out
    assert captured.err == ""


def test_check_fails_cphase_correctness_when_00_never_heralds(tmp_path, capsys):
    code = main(["check", "--netlist", _unrotated_detector_netlist(tmp_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAIL  cphase_correctness: " in captured.out
    assert captured.err == ""


def test_check_fails_on_detuned_netlist(tmp_path, capsys):
    data = netlist_to_dict(default_netlist())
    for el in data["elements"]:
        if el["name"] == "PPBS":
            el["params"]["bar_v"] = 0.7  # wrong splitting ratio
    path = tmp_path / "detuned.json"
    path.write_text(json.dumps(data))
    code = main(["check", "--netlist", str(path)])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL" in out


def test_console_entry_point_runs(tmp_path):
    # the child imports the same fockgate as this process, installed or not
    src = str(Path(fockgate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fockgate.cli", "truth-table", "--phi", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "fidelity" in proc.stdout
    # a sweep under the suite's warning policy: a numpy RuntimeWarning would fail it
    proc = subprocess.run(
        [sys.executable, "-m", "fockgate.cli", "sweep", "--dimension", "width",
         "--physics", str(_physics_with_sensitivity(tmp_path))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("delta_nm,")


# -- fuzz of the file boundary ------------------------------------------------------

# well-formed but wrong values too: a bool, a number in a string, small
# integers (as herald counts they can leave no logical output heralded),
# and finite numbers at the ends of the float range
FUZZ_VALUES = (
    st.sampled_from([math.nan, math.inf, -math.inf, "x", [1.0, 2.0], True, "1.5",
                     1e308, -1e308, 5e-324])
    | st.floats(min_value=-1e3, max_value=-1e-3)
    | st.integers(0, 3)
)


def _locations(doc, path=()):
    """(path, is_number) of every value in a JSON document below its root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        yield path + (key,), number
        yield from _locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one to three edits: a number replaced, or a key dropped or renamed.

    The kind of edit is drawn first, each kind equally likely, and then its
    location, so a number (a herald count, a physics value) is replaced as
    often as a key is dropped.
    """
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        keys = [path for path, _ in _locations(doc) if isinstance(path[-1], str)]
        choices = {
            "replace": [path for path, number in _locations(doc) if number],
            "drop": keys,
            "rename": keys,
        }
        edit = draw(st.sampled_from([edit for edit, paths in choices.items() if paths]))
        path = draw(st.sampled_from(choices[edit]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if edit == "replace":
            # a copy: a later edit must not write into the shared list value
            parent[path[-1]] = copy.deepcopy(draw(FUZZ_VALUES))
        elif edit == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1] + "_x"] = parent.pop(path[-1])
    return doc


FUZZ_PHYSICS = physics_to_dict(CouplerPhysics().with_sensitivities("width", 0.004, 0.003))
FUZZ_NETLIST = netlist_to_dict(default_netlist())


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=50, deadline=None)
@given(physics=mutated(FUZZ_PHYSICS), netlist=mutated(FUZZ_NETLIST))
def test_mutated_files_exit_0_2_or_3(physics, netlist, tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    physics_path, netlist_path = folder / "physics.json", folder / "netlist.json"
    physics_path.write_text(json.dumps(physics))
    netlist_path.write_text(json.dumps(netlist))
    for argv in (
        ["design", "--element", "ppbs", "--physics", str(physics_path)],
        ["sweep", "--dimension", "width", "--step", "5", "--physics", str(physics_path)],
        ["sweep", "--dimension", "width", "--step", "5", "--netlist", str(netlist_path)]
        + ["--physics", str(physics_path)],
        ["truth-table", "--phi", "0.5", "--netlist", str(netlist_path)],
    ):
        assert _run_quietly(argv) in (0, 2, 3), argv
