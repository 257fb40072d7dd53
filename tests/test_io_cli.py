import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockgate
from fockgate.cli import main, parse_qubit
from fockgate.gate import NetlistError
from fockgate.design import CouplerPhysics
from fockgate.gate import default_netlist, extract_gate
from fockgate.io import (
    format_number,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    physics_from_dict,
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
    bad = default_netlist()
    data = netlist_to_dict(bad)
    data["herald"][0]["ports"] = ["GHOST"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(
        ["simulate", "--phi", "0", "--target", "1,0:0,0",
         "--control", "1,0:0,0", "--netlist", str(path)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "GHOST" in err


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


def test_console_entry_point_runs():
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
