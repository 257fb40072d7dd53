import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import fockgate
from fockgate.cli import main, parse_qubit
from fockgate.gate import NetlistError
from fockgate.design import (
    DIMENSIONS,
    CouplerPhysics,
    NotchAnchor,
    NotchCalibration,
    PhysicsError,
    enumerate_v_perfect_lengths,
)
from fockgate.fock import H, V
from fockgate.gate import (
    ELEMENT_KINDS,
    ElementSpec,
    HeraldTerm,
    PortDecl,
    QubitEncoding,
    circuit_matrix,
    coupler_operators,
    default_netlist,
    extract_gate,
    spec,
)
from fockgate.io import (
    format_number,
    load_netlist,
    load_physics,
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


# values of every rule's type, most of them valid for some rule and some for none
PARAM_VALUES = (
    st.floats(-0.5, 1.5)
    | st.integers(-1, 2)
    | st.sampled_from([math.nan, math.inf, 10**400, True, False, "hwp1", "hadamard", "x", None, [0.5]])
    | st.lists(st.lists(st.floats(-1.0, 1.0) | st.complex_numbers(max_magnitude=1.0) | st.just(True),
                        min_size=2, max_size=2), min_size=2, max_size=2)
)


@st.composite
def kinds_and_params(draw):
    kind = draw(st.sampled_from(sorted(ELEMENT_KINDS)))
    keys = sorted(ELEMENT_KINDS[kind][1])
    drawn = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    return kind, {key: draw(PARAM_VALUES) for key in drawn}


@settings(max_examples=100, deadline=None)
@given(drawn=kinds_and_params())
def test_a_netlist_whose_specs_are_made_saves_and_loads_as_itself(drawn, tmp_path_factory):
    kind, params = drawn
    arity = ELEMENT_KINDS[kind][0]
    try:
        el = spec("X", kind, ("F1_LOSS", "F2_LOSS")[: arity or 2], **params)
    except NetlistError:
        assume(False)
    base = default_netlist()
    netlist = dataclasses.replace(base, elements=(el,) + base.elements)
    path = tmp_path_factory.mktemp("round_trip") / "netlist.json"
    save_netlist(netlist, path)
    try:
        circuit_matrix(netlist)
    except NetlistError as exc:  # made, but its matrix is not unitary: the file fails alike
        with pytest.raises(NetlistError, match=f"^{re.escape(str(exc))}$"):
            load_netlist(path)
    else:
        assert load_netlist(path) == netlist


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


BEATS = st.integers(1, 50) | st.floats(0.5, 50.0)
SENSITIVITIES = st.integers(-1, 1) | st.floats(-0.01, 0.01)
LENGTHS = st.integers(0, 100) | st.floats(0.0, 100.0)
ANCHORS = st.lists(
    st.tuples(st.integers(0, 5) | st.floats(0.0, 5.0), st.sampled_from([H, V]),
              st.integers(0, 1) | st.floats(0.0, 1.0)),
    max_size=4, unique_by=lambda a: (float(a[0]), a[1]),
)


@seed(20231020)
@settings(max_examples=60, deadline=None)
@given(
    beats=st.tuples(BEATS, BEATS),
    sensitivities=st.dictionaries(st.sampled_from(DIMENSIONS), st.tuples(SENSITIVITIES, SENSITIVITIES)),
    lengths=st.none() | st.dictionaries(st.sampled_from(["PBS1", "PPBS", "F1", "F2", "X"]), LENGTHS),
    anchors=st.none() | ANCHORS,
)
def test_physics_round_trips_and_computes_alike(beats, sensitivities, lengths, anchors, tmp_path_factory):
    # a partial sensitivity table loaded as a full one, and an int beat printed as "8", not "8.0"
    fields = {"beat_h": beats[0], "beat_v": beats[1], "sensitivities": tuple(sensitivities.items())}
    if lengths is not None:
        fields["coupler_lengths"] = tuple(lengths.items())
    if anchors is not None:
        fields["notch"] = NotchCalibration(tuple(NotchAnchor(*a) for a in anchors))
    physics = CouplerPhysics(**fields)
    loaded = physics_from_dict(physics_to_dict(physics))
    assert loaded == physics
    path = tmp_path_factory.mktemp("physics") / "physics.json"
    save_physics(physics, path)
    assert load_physics(path) == physics

    def lengths_of(p):
        return [(s.length_um, s.bar_h, s.bar_v, s.residual)
                for s in enumerate_v_perfect_lengths(p, (0.0, 100.0), count=5)]

    got, want = lengths_of(loaded), lengths_of(physics)
    assert got == want
    assert [[format_number(x) for x in row] for row in got] == [[format_number(x) for x in row] for row in want]


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
    # the values of INVALID_PHYSICS (test_design.py) that a file can hold; more in PHYSICS_FAULT_TEXTS
    "infinite_beat": {"beat_um": {"H": math.inf}},
    "nan_coupler_length": {"coupler_lengths_um": {"F1": math.nan}},
    "negative_notch_length": {
        "notch_anchors": [{"length_um": -0.75, "input_pol": "V", "conversion": 0.25}]
    },
    "bool_notch_length": {
        "notch_anchors": [{"length_um": True, "input_pol": "V", "conversion": 0.5}]
    },
    "unknown_sensitivity_pol": {"sensitivities_um_per_nm": {"gap": {"HV": 0.1}}},
}


@pytest.mark.parametrize("doc", BAD_PHYSICS.values(), ids=BAD_PHYSICS.keys())
def test_bad_physics_documents_raise_physics_error(doc):
    with pytest.raises(PhysicsError):
        physics_from_dict(doc)


# a file's value faults, with the text of the type that checks them: the
# same text as for the value made in Python
PHYSICS_FAULT_TEXTS = {
    "negative_beat": ({"beat_um": {"V": -8.32}}, "beat_v must be positive, got -8.32"),
    "string_beat": ({"beat_um": {"H": "35.8"}}, "beat_h must be a finite number, got '35.8'"),
    "nan_sensitivity": ({"sensitivities_um_per_nm": {"width": {"H": math.nan}}},
                        "sensitivity H for 'width' must be a finite number, got nan"),
    "unknown_dimension": ({"sensitivities_um_per_nm": {"length": {"H": 0.1}}},
                          "unknown sensitivity dimension 'length'; expected one of ('width', 'height', 'gap')"),
    "negative_coupler_length": ({"coupler_lengths_um": {"PBS1": -70.72}},
                                "coupler length of 'PBS1' must be non-negative, got -70.72"),
    "notch_conversion_7": (
        {"notch_anchors": [{"length_um": 0.75, "input_pol": "V", "conversion": 7.0}]},
        "notch anchor conversion must be in [0, 1], got 7.0"),
    "unknown_anchor_pol": (
        {"notch_anchors": [{"length_um": 0.75, "input_pol": "h", "conversion": 0.25}]},
        "notch anchor input_pol 'h' is not a Polarization (H or V)"),
    "anchor_lacks_conversion": ({"notch_anchors": [{"length_um": 0.75, "input_pol": "V"}]},
                                "notch anchor lacks key 'conversion'"),
    # conversion(1.0, H) was the first anchor's, 0.1 or 0.5 by the order of the file
    "two_anchors_at_one_length": (
        {"notch_anchors": [{"length_um": 1.0, "input_pol": "H", "conversion": 0.1},
                           {"length_um": 1.0, "input_pol": "H", "conversion": 0.5},
                           {"length_um": 2.0, "input_pol": "H", "conversion": 0.9}]},
        "notch anchor (input_pol, length_um) ('H', 1.0) is given twice"),
    "two_anchors_at_one_length_swapped": (
        {"notch_anchors": [{"length_um": 1.0, "input_pol": "H", "conversion": 0.5},
                           {"length_um": 1.0, "input_pol": "H", "conversion": 0.1},
                           {"length_um": 2.0, "input_pol": "H", "conversion": 0.9}]},
        "notch anchor (input_pol, length_um) ('H', 1.0) is given twice"),
}


@pytest.mark.parametrize("doc, message", PHYSICS_FAULT_TEXTS.values(), ids=PHYSICS_FAULT_TEXTS.keys())
def test_physics_file_faults_name_the_value(doc, message, tmp_path, capsys):
    with pytest.raises(PhysicsError, match=f"^{re.escape(message)}$"):
        physics_from_dict(doc)
    path = tmp_path / "physics.json"
    path.write_text(json.dumps(doc))
    assert main(["design", "--element", "pbs", "--physics", str(path)]) == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"


# physics files the loader accepts, with a beat too short for pi L / beat to
# be finite over the element's default length range
TINY_BEAT_DESIGNS = {
    "pbs_h": ("pbs", {"beat_um": {"H": 5e-324}}),
    "ppbs_h": ("ppbs", {"beat_um": {"H": 5e-324}}),
    "f1_h": ("f1", {"beat_um": {"H": 5e-324}}),
    "f1_v": ("f1", {"beat_um": {"V": 5e-324}}),
    "f2_h": ("f2", {"beat_um": {"H": 5e-324}}),
    "f2_v": ("f2", {"beat_um": {"V": 5e-324}}),
}


@pytest.mark.parametrize("element, doc", TINY_BEAT_DESIGNS.values(), ids=TINY_BEAT_DESIGNS.keys())
def test_design_with_a_too_short_beat_exits_3(element, doc, tmp_path, capsys):
    path = tmp_path / "physics.json"
    path.write_text(json.dumps(doc))
    code = main(["design", "--element", element, "--physics", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("validation error: beat length 5e-324 um is too short")
    assert captured.out == ""


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


def _default_netlist_text():
    return json.dumps(netlist_to_dict(default_netlist()))


# file texts that are no JSON document, or give a key twice in one object, with the end of the message
BAD_JSON_TEXTS = {
    "netlist_truncated": ("netlist", lambda: _default_netlist_text()[:-1], "is not valid JSON: Expecting"),
    "physics_truncated": ("physics", lambda: '{"beat_um": ', "is not valid JSON: Expecting value"),
    # the last t_h won, 0.1 in place of 0.5
    "netlist_key_twice": (
        "netlist",
        lambda: _default_netlist_text().replace('"t_h": 0.5, "t_v": 0.5', '"t_h": 0.5, "t_v": 0.5, "t_h": 0.1', 1),
        "key 't_h' is given twice",
    ),
    # the last H won: L = 62.4 um ranked first, not 70.72
    "physics_key_twice": (
        "physics", lambda: '{"beat_um": {"H": 35.8, "H": 1e9, "V": 8.32}}', "key 'H' is given twice",
    ),
}


@pytest.mark.parametrize("kind, text, message", BAD_JSON_TEXTS.values(), ids=BAD_JSON_TEXTS.keys())
def test_a_file_that_is_not_one_json_document_exits_3(kind, text, message, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(text())
    assert main(FILE_FLAG_ARGS[kind] + [str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"validation error: {kind} file {path} {message}")
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


# each argument list, and the message of the check that refuses it
BAD_RANGE_ARGS = {
    "sweep --dimension width --step 0": "error: step must be positive, got 0.0",
    "sweep --dimension width --step -1": "error: step must be positive, got -1.0",
    "sweep --dimension width --range=5:-5": "error: invalid delta range [5.0, -5.0]",
    "design --element pbs --range 80:60": "error: invalid length range [80.0, 60.0]",
    "design --element pbs --range=-5:60": "error: invalid length range [-5.0, 60.0]",
    "design --element f2 --range 90:80": "error: invalid length range [90.0, 80.0]",
    "design --element pbs --count 0": "error: solution count must be at least 1, got 0",
    "design --element pbs --count=-1": "error: solution count must be at least 1, got -1",
    "check --seed -1": "error: --seed must be non-negative, got -1",
}


@pytest.mark.parametrize("args, message", BAD_RANGE_ARGS.items(), ids=BAD_RANGE_ARGS.keys())
def test_bad_ranges_and_counts_exit_2(args, message, tmp_path, capsys):
    argv = args.split()
    if argv[0] == "sweep":
        argv = argv + ["--physics", str(_physics_with_sensitivity(tmp_path))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message + "\n"
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


# the physics file "--physics=NAME" stands for in REFUSED_ARGS
CLI_PHYSICS = {
    "sensitive": {"sensitivities_um_per_nm": {"width": {"H": 0.004, "V": 0.004}}},
    # the V beat (8.32 um) reaches zero within the default -10:10 nm range
    "beyond_validity": {"sensitivities_um_per_nm": {"width": {"H": 0.004, "V": -0.9}}},
    "huge_coupler_length": {"coupler_lengths_um": {"PBS1": 1e308},
                            "sensitivities_um_per_nm": {"width": {"H": 0.004, "V": 0.004}}},
    "huge_beat_and_sensitivity": {"beat_um": {"H": 1e308},
                                  "sensitivities_um_per_nm": {"width": {"H": 1e308}}},
    "tiny_v_beat": {"beat_um": {"V": 5e-324}},
    "string_beat": {"beat_um": {"H": "35.8"}},
}

# every refused argument list, with its exit status and its whole stderr line
REFUSED_ARGS = {
    # not finite
    "truth-table --phi inf": (2, "error: program phase phi must be finite, got inf"),
    "truth-table --phi nan": (2, "error: program phase phi must be finite, got nan"),
    "simulate --phi nan --target=1,0:0,0 --control=1,0:0,0":
        (2, "error: program phase phi must be finite, got nan"),
    "simulate --phi 0 --target=nan,0:0,0 --control=1,0:0,0":
        (2, "error: qubit amplitudes must be finite, got ((nan+0j), 0j)"),
    "simulate --phi 0 --target=1,0:0,0 --control=1,0:0,inf":
        (2, "error: qubit amplitudes must be finite, got ((1+0j), infj)"),
    "sweep --dimension width --phi nan --physics=sensitive":
        (2, "error: program phase phi must be finite, got nan"),
    "sweep --dimension width --step nan --physics=sensitive": (2, "error: step nan nm is not finite"),
    "sweep --dimension width --range=-inf:10 --physics=sensitive":
        (2, "error: delta range bound -inf nm is not finite"),
    "design --element pbs --range 60:nan": (2, "error: length range bound nan um is not finite"),
    "design --element f2 --range 0:inf": (2, "error: length range bound inf um is not finite"),
    # unparsable
    "simulate --phi 0 --target=nope --control=1,0:0,0":
        (2, "error: cannot parse qubit amplitudes 'nope': expected 're,im:re,im'"),
    "simulate --phi 0 --target=1,0:x,0 --control=1,0:0,0":
        (2, "error: could not convert string to float: 'x'"),
    "design --element pbs --range 60": (2, "error: cannot parse range '60' (expected LO:HI)"),
    "design --element pbs --range a:80": (2, "error: could not convert string to float: 'a'"),
    # out of range
    "sweep --dimension width --step 0 --physics=sensitive": (2, "error: step must be positive, got 0.0"),
    "sweep --dimension width --step -1 --physics=sensitive": (2, "error: step must be positive, got -1.0"),
    "sweep --dimension width --range=5:-5 --physics=sensitive": (2, "error: invalid delta range [5.0, -5.0]"),
    "design --element pbs --range 80:60": (2, "error: invalid length range [80.0, 60.0]"),
    "design --element pbs --range=-5:60": (2, "error: invalid length range [-5.0, 60.0]"),
    "design --element f2 --range 90:80": (2, "error: invalid length range [90.0, 80.0]"),
    "design --element pbs --count 0": (2, "error: solution count must be at least 1, got 0"),
    "design --element f2 --count=-1": (2, "error: solution count must be at least 1, got -1"),
    "check --seed -1": (2, "error: --seed must be non-negative, got -1"),
    # grids too large
    "design --element pbs --range 0:1e308": (2, "error: length range [0.0, 1e+308] um needs more "
                                                "than 1000000 scan points at step 0.01 um"),
    "design --element f2 --range 0:1e308":
        (2, "error: length range [0.0, 1e+308] um spans 1000000 or more V beats"),
    "sweep --dimension width --range=-1e300:1e300 --physics=sensitive":
        (2, "error: a sweep of [-1e+300, 1e+300] nm at step 1.0 nm has more than 10001 points"),
    "sweep --dimension width --step 0.0019 --physics=sensitive":
        (2, "error: a sweep of [-10.0, 10.0] nm at step 0.0019 nm has more than 10001 points"),
    # the model: a nonzero study without sensitivities, or physics past its validity
    "sweep --dimension width": (
        2, "error: sensitivities for 'width' are all zero; configure CouplerPhysics.sensitivities "
           "(a physics file's sensitivities_um_per_nm, um per nm) before running a nonzero "
           "tolerance study"),
    "sweep --dimension width --physics=beyond_validity": (
        3, "validation error: element 'PBS1': perturbed beat length -0.6799999999999997 um at "
           "delta 10.0 nm is non-positive; sensitivity model out of validity"),
    "sweep --dimension width --physics=huge_coupler_length": (
        3, "validation error: element 'PBS1': coupling angle theta_h at delta -10.0 nm is inf, "
           "not finite"),
    "sweep --dimension width --physics=huge_beat_and_sensitivity": (
        3, "validation error: element 'PBS1': perturbed beat length -inf um at delta -10.0 nm is "
           "non-positive; sensitivity model out of validity"),
    "design --element f2 --physics=tiny_v_beat": (
        3, "validation error: beat length 5e-324 um is too short for a coupler length of 90.0 um: "
           "pi L / beat is not finite"),
    # files load before the grid is checked
    "sweep --dimension width --step 0 --physics=string_beat": (
        3, "validation error: beat_h must be a finite number, got '35.8'"),
}


@pytest.mark.parametrize("args, code, message", [(args, *row) for args, row in REFUSED_ARGS.items()],
                         ids=REFUSED_ARGS.keys())
def test_refused_arguments_exit_with_their_status_and_message(args, code, message, tmp_path, capsys):
    argv = []
    for arg in args.split():
        if arg.startswith("--physics="):
            path = tmp_path / "physics.json"
            path.write_text(json.dumps(CLI_PHYSICS[arg.removeprefix("--physics=")]))
            arg = f"--physics={path}"
        argv.append(arg)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def _netlist_json(tmp_path, edit):
    data = netlist_to_dict(default_netlist())
    if getattr(edit, "on_document", False):
        edit(data)
    else:
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


def _hwp1_params(**params):
    """An edit that gives HWP1 exactly these parameters."""
    def edit(el):
        if el["name"] == "HWP1":
            el["params"] = params
    return edit


def _on_document(edit):
    """Mark `edit` as an edit of the whole netlist document rather than of each element."""
    edit.on_document = True
    return edit


def _named(path, name):
    """A document edit that puts `name` where the keys and indices of `path` lead."""
    @_on_document
    def edit(data):
        at = data
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = name
    return edit


def _key_renamed(path, key, name):
    """A document edit that renames `key` of the object where `path` leads to `name`."""
    @_on_document
    def edit(data):
        for step in path:
            data = data[step]
        data[name] = data.pop(key)
    return edit


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
    "ports_string": (_pbs1_ports_string, ["truth-table", "--phi", "0"],
                     "'PBS1' of kind 'pbs' ports must be a list"),
    "near_unitary_hadamards": (_near_unitary_hadamards, ["check"], "not unitary"),
    "unknown_key_bogus": (_f1_bogus_key, ["truth-table", "--phi", "0"], "'bogus'"),
    "unknown_key_t_hh": (_f1_typo_t_hh, ["truth-table", "--phi", "0"], "'t_hh'"),
    # a one-number pair would load as a real entry
    "matrix_one_number_pair": (
        _hwp1_params(matrix=[[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        ["truth-table", "--phi", "0"], "'HWP1' parameter 'matrix'",
    ),
    "matrix_bool_entries": (
        _hwp1_params(matrix=[[[True, False], [False, False]], [[False, False], [True, False]]]),
        ["truth-table", "--phi", "0"], "'HWP1' parameter 'matrix' must be a finite number",
    ),
    "matrix_three_number_pair": (
        _hwp1_params(matrix=[[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        ["truth-table", "--phi", "0"], "'HWP1' parameter 'matrix'",
    ),
    "matrix_string": (
        _hwp1_params(matrix="identity"), ["truth-table", "--phi", "0"], "'HWP1' parameter 'matrix'",
    ),
    "matrix_string_entry": (
        _hwp1_params(matrix=[[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        ["truth-table", "--phi", "0"], "'HWP1' parameter 'matrix' must be a finite number",
    ),
    # a list would be realized as a matrix
    "preset_list": (
        _hwp1_params(preset=[[1.0, 0.0], [0.0, 1.0]]),
        ["truth-table", "--phi", "0"], "'HWP1' parameter 'preset' must be a string",
    ),
    # every name is a string: a list is unhashable and a number matches no declared port
    "port_name_list": (
        _named(("ports", 0, "name"), ["T"]), ["truth-table", "--phi", "0"],
        "port name ['T'] is not a string",
    ),
    "port_name_number": (
        _named(("ports", 0, "name"), 5), ["truth-table", "--phi", "0"],
        "port name 5 is not a string",
    ),
    "element_name_list": (
        _named(("elements", 0, "name"), ["PBS1"]), ["truth-table", "--phi", "0"],
        "element name ['PBS1'] is not a string",
    ),
    "element_port_number": (
        _named(("elements", 0, "ports", 1), 5), ["truth-table", "--phi", "0"],
        "element 'PBS1' port 5 is not a string",
    ),
    "herald_port_list": (
        _named(("herald", 1, "ports", 0), ["C"]), ["truth-table", "--phi", "0"],
        "herald term 1 port ['C'] is not a string",
    ),
    "encoding_program_number": (
        _named(("encoding", "program"), 3), ["check"], "encoding program 3 is not a string",
    ),
    "params_list": (_named(("elements", 2, "params"), [0.5]), ["truth-table", "--phi", "0"],
                    "element 'HWP1' parameters must be an object, got [0.5]"),
    "unknown_kind": (_named(("elements", 0, "kind"), "laser"), ["truth-table", "--phi", "0"],
                     "unknown element kind 'laser' (PBS1)"),
    "unknown_role": (_named(("ports", 0, "role"), "mirror"), ["truth-table", "--phi", "0"],
                     "unknown port role 'mirror' for 'T'"),
    # a misspelt key was ignored: the PPBS kept its default bars, and truth-table exited 0 with fidelity 1.0
    "params_misspelt": (_key_renamed(("elements", 3), "params", "parms"), ["truth-table", "--phi", "0"],
                        "validation error: unknown key 'parms' in element 3\n"),
    "role_misspelt": (_key_renamed(("ports", 0), "role", "rol"), ["truth-table", "--phi", "0"],
                      "validation error: unknown key 'rol' in port 0\n"),
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


@pytest.mark.parametrize("doc", [[], "netlist", 5, None], ids=["list", "string", "number", "null"])
def test_a_netlist_document_that_is_not_an_object_exits_3(doc, tmp_path, capsys):
    # a list gave "malformed netlist document: list indices must be integers or slices, not str"
    path = tmp_path / "netlist.json"
    path.write_text(json.dumps(doc))
    assert main(["truth-table", "--phi", "0", "--netlist", str(path)]) == 3
    assert capsys.readouterr().err == f"validation error: netlist document must be an object, got {doc!r}\n"


def test_unrealizable_netlist_fails_on_load(tmp_path):
    with pytest.raises(NetlistError, match="F1.*t_h"):
        load_netlist(_netlist_json(tmp_path, _drop_f1_t_h))


@pytest.mark.parametrize("count", [1.5, "1", math.nan, True])
def test_herald_count_must_be_an_integer(count):
    data = netlist_to_dict(default_netlist())
    data["herald"][0]["count"] = count
    with pytest.raises(NetlistError, match="count"):
        netlist_from_dict(data)


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


HERALD_FILE_FAULTS = {
    "ghost_port": (0, "ports", ["GHOST"], "herald references unknown port 'GHOST'"),
    # strings would split into the ports "T" and the pols "H", "V"
    "ports_string_0": (0, "ports", "T", "herald term 0 ports must be a list of port names, got 'T'"),
    "pols_string_0": (0, "pols", "HV", "herald term 0 pols must be a list of polarizations, got 'HV'"),
    # its V photon was counted twice
    "pol_twice_0": (0, "pols", ["H", "V", "V"], "herald term 0 polarization 'V' is given twice"),
    # one row per HERALD_GAPS case (test_gate.py), in term 2: the count and
    # polarization faults did not name the term
    "count_true": (2, "count", True, "herald term 2 count must be an integer, got True"),
    "count_float": (2, "count", 1.5, "herald term 2 count must be an integer, got 1.5"),
    "count_negative": (2, "count", -1, "herald term 2 count must be non-negative, got -1"),
    "pols_strings": (2, "pols", ["X"], "herald term 2 polarization 'X' is not a Polarization (H or V)"),
    # a file holds no set: an object in its place
    "pols_set": (2, "pols", {"V": 1}, "herald term 2 pols must be a list of polarizations, got {'V': 1}"),
    "ports_string": (2, "ports", "TC", "herald term 2 ports must be a list of port names, got 'TC'"),
    "ports_dict": (2, "ports", {"P": 1}, "herald term 2 ports must be a list of port names, got {'P': 1}"),
    "ports_number": (2, "ports", 5, "herald term 2 ports must be a list of port names, got 5"),
    "pol_twice": (2, "pols", ["V", "V"], "herald term 2 polarization 'V' is given twice"),
}


@pytest.mark.parametrize("term, key, value, message", HERALD_FILE_FAULTS.values(), ids=HERALD_FILE_FAULTS.keys())
def test_invalid_netlist_contents_exit_3(term, key, value, message, tmp_path, capsys):
    data = netlist_to_dict(default_netlist())
    data["herald"][term][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(
        ["simulate", "--phi", "0", "--target", "1,0:0,0",
         "--control", "1,0:0,0", "--netlist", str(path)]
    )
    assert code == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"


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


def test_a_nominal_sweep_needs_no_sensitivities(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--dimension", "width", "--range=0:0", "--output", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("0.0,")


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


def _check_output(seed, capsys):
    """`check --seed seed` stdout with its wall-clock runtimes masked."""
    assert main(["check", "--seed", str(seed)]) == 0
    return re.sub(r"runtime [0-9.]+s", "runtime <masked>", capsys.readouterr().out)


def test_check_output_depends_only_on_the_seed(capsys):
    first = _check_output(3, capsys)
    assert _check_output(3, capsys) == first

    def conservation(out):
        return next(line for line in out.splitlines() if "conservation_suite" in line)

    assert conservation(_check_output(4, capsys)) != conservation(first)


def _child_env():
    """The environment of a child process that imports the same fockgate as this one."""
    src = str(Path(fockgate.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_check_process_does_not_load_numpy_random():
    # numpy.random adds about 6 MB to a process's peak; nothing in `check` needs it
    child = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('numpy.random loaded:', 'numpy.random' in sys.modules))\n"
        "sys.argv = ['fockgate', 'check']\n"
        "runpy.run_module('fockgate.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "all 8 acceptance criteria passed" in proc.stdout
    assert proc.stdout.endswith("numpy.random loaded: False\n")


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


def test_sweep_with_a_length_that_names_no_coupler_exits_3(tmp_path, capsys):
    # the physics file's PBS1 renamed PBS_1: once exit 0, with no PBS1 columns
    data = physics_to_dict(CouplerPhysics().with_sensitivities("width", 0.004, 0.004))
    data["coupler_lengths_um"]["PBS_1"] = data["coupler_lengths_um"].pop("PBS1")
    path = tmp_path / "physics.json"
    path.write_text(json.dumps(data))
    code = main(["sweep", "--dimension", "width", "--step", "10", "--physics", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (
        "validation error: coupler length 'PBS_1' names no pbs, ppbs or filter of the "
        "netlist (its couplers: PBS1, F1, PPBS, F2, PBS3, PBS2)\n"
    )
    assert captured.out == ""


def test_check_of_a_netlist_with_a_renamed_coupler_sweeps_the_couplers_it_has(tmp_path, capsys):
    # criterion 7 sweeps with the shipped lengths of the couplers the netlist has
    data = netlist_to_dict(default_netlist())
    for el in data["elements"]:
        if el["name"] == "PBS1":
            el["name"] = "PBS_1"
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--netlist", str(path)]) == 0
    renamed = re.sub(r"runtime [0-9.]+s", "runtime <masked>", capsys.readouterr().out)
    assert renamed == _check_output(7, capsys)


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
    proc = subprocess.run(
        [sys.executable, "-m", "fockgate.cli", "truth-table", "--phi", "0"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "fidelity" in proc.stdout
    # a sweep under the suite's warning policy: a numpy RuntimeWarning would fail it
    proc = subprocess.run(
        [sys.executable, "-m", "fockgate.cli", "sweep", "--dimension", "width",
         "--physics", str(_physics_with_sensitivity(tmp_path))],
        capture_output=True,
        text=True,
        env={**_child_env(), "PYTHONWARNINGS": "error::RuntimeWarning"},
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
    """`doc` with one to three edits: a herald count set to 0-3, a number
    replaced, or a key dropped or renamed.

    The kind of edit is drawn first and then its location, so a kind with
    few locations (the herald counts, a physics value) is drawn as often as
    one with many.  The herald edit exists because a count of 0, 2 or 3 can
    leave no logical output heralded, which a replaced number alone reaches
    in only a few percent of netlists.  It is listed first because
    Hypothesis leans toward the first choice: about 38% of netlist edits,
    against 25% when listed last.
    """
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        locations = list(_locations(doc))
        keys = [path for path, _ in locations if isinstance(path[-1], str)]
        choices = {
            "herald": [path for path, _ in locations if path[0] == "herald" and path[-1] == "count"],
            "replace": [path for path, number in locations if number],
            "drop": keys,
            "rename": keys,
        }
        edit = draw(st.sampled_from([edit for edit, paths in choices.items() if paths]))
        path = draw(st.sampled_from(choices[edit]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if edit == "herald":
            parent[path[-1]] = draw(st.integers(0, 3))
        elif edit == "replace":
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


# -- one rule per input: lists, values given once, JSON objects ---------------------

SHIPPED_DOCUMENTS = {
    "netlist": netlist_to_dict(default_netlist()),
    "physics": physics_to_dict(CouplerPhysics()),
}
DOCUMENT_RUNS = {
    "netlist": ["truth-table", "--phi", "0", "--netlist"],
    "physics": ["design", "--element", "pbs", "--physics"],
}


def _run_document(kind, doc, tmp_path, capsys):
    """The exit code and stderr of a command that loads `doc` as a `kind` file."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    code = main(DOCUMENT_RUNS[kind] + [str(path)])
    return code, capsys.readouterr().err


def _edited(kind, edit):
    doc = copy.deepcopy(SHIPPED_DOCUMENTS[kind])
    edit(doc)
    return doc


def _set_at(*path):
    """An edit that puts its value where the keys and indices of `path` lead."""
    def edit(doc, value):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


_NETLIST = default_netlist()

# Every list field of the parts: the field as messages name it, the part
# made from a value, the items the field lists and, where a file holds the
# field as a JSON list, the file, the edit that sets it and the field as the
# file's message names it.
LIST_FIELDS = {
    "element_ports": ("element 'PBS1' of kind 'pbs' ports", lambda v: spec("PBS1", "pbs", v), "port names",
                      ("netlist", _set_at("elements", 0, "ports"), "element 'PBS1' of kind 'pbs' ports")),
    # a file holds params as an object (`test_unrealizable_netlist_exits_3`)
    "element_params": ("element 'F1' of kind 'filter' params",
                       lambda v: ElementSpec("F1", "filter", ("T", "F1_LOSS"), v), "(key, value) pairs", None),
    "herald_ports": ("herald term ports", lambda v: HeraldTerm(v, (H, V), 1), "port names",
                     ("netlist", _set_at("herald", 2, "ports"), "herald term 2 ports")),
    "herald_pols": ("herald term pols", lambda v: HeraldTerm(("T",), v, 1), "polarizations",
                    ("netlist", _set_at("herald", 2, "pols"), "herald term 2 pols")),
    "netlist_ports": ("netlist ports", lambda v: dataclasses.replace(_NETLIST, ports=v), "PortDecls",
                      ("netlist", _set_at("ports"), "netlist ports")),
    "netlist_elements": ("netlist elements", lambda v: dataclasses.replace(_NETLIST, elements=v), "ElementSpecs",
                         ("netlist", _set_at("elements"), "netlist elements")),
    "netlist_herald": ("netlist herald", lambda v: dataclasses.replace(_NETLIST, herald=v), "HeraldTerms",
                       ("netlist", _set_at("herald"), "netlist herald")),
    # a file holds these two as objects (`BAD_PHYSICS`)
    "sensitivities": ("sensitivities", lambda v: CouplerPhysics(sensitivities=v), "(key, value) pairs", None),
    "coupler_lengths": ("coupler_lengths", lambda v: CouplerPhysics(coupler_lengths=v),
                        "(key, value) pairs", None),
    "notch_anchors": ("notch anchors", NotchCalibration, "NotchAnchors",
                      ("physics", _set_at("notch_anchors"), "notch anchors")),
}
# a string gave one item per character, a set its items in hash order and a dict its keys
NOT_LISTS = {"string": "TL", "dict": {"T": "L"}, "set": {"T", "L"}, "number": 5, "none": None}


@pytest.mark.parametrize("bad", NOT_LISTS)
@pytest.mark.parametrize("field", LIST_FIELDS)
def test_a_list_field_takes_only_a_list_or_a_tuple(field, bad, tmp_path, capsys):
    named, make, items, file = LIST_FIELDS[field]
    value = NOT_LISTS[bad]
    message = f"{named} must be a list of {items}, got {value!r}"
    with pytest.raises((NetlistError, PhysicsError), match=f"^{re.escape(message)}$"):
        make(value)
    if file is None or bad == "set":  # a file holds no set
        return
    kind, edit, file_named = file
    code, err = _run_document(kind, _edited(kind, lambda doc: edit(doc, value)), tmp_path, capsys)
    assert code == 3
    assert err == f"validation error: {message.replace(named, file_named, 1)}\n"


def _element_renamed(k, name):
    elements = list(_NETLIST.elements)
    elements[k] = dataclasses.replace(elements[k], name=name)
    return elements


_ANCHORS_AT_ONE_LENGTH = (NotchAnchor(1.0, H, 0.1), NotchAnchor(1, H, 0.5))

# Every value that may be given only once: the part made with it twice, the
# message, and where a file can give it twice, the file, its edit and its
# message (None: the same).  A key given twice in one object of a file is
# refused by the JSON reader (`BAD_JSON_TEXTS`).
ONCE_CASES = {
    "element_port": (lambda: spec("PBS1", "pbs", ("T", "T")), "element 'PBS1' port 'T' is given twice",
                     ("netlist", lambda d: _set_at("elements", 0, "ports")(d, ["T", "T"]), None)),
    "element_parameter": (
        lambda: ElementSpec("F1", "filter", ("T", "F1_LOSS"), (("t_h", 0.5), ("t_v", 0.5), ("t_h", 0.9))),
        "element 'F1' parameter 't_h' is given twice", None),
    "herald_port": (lambda: HeraldTerm(("P", "P"), (V,), 1), "herald term port 'P' is given twice",
                    ("netlist", lambda d: _set_at("herald", 2, "ports")(d, ["P", "P"]),
                     "herald term 2 port 'P' is given twice")),
    "herald_pol": (lambda: HeraldTerm(("P",), (V, V), 1), "herald term polarization 'V' is given twice",
                   ("netlist", lambda d: _set_at("herald", 2, "pols")(d, ["V", "V"]),
                    "herald term 2 polarization 'V' is given twice")),
    "netlist_port": (lambda: dataclasses.replace(_NETLIST, ports=_NETLIST.ports + (PortDecl("T"),)),
                     "netlist port 'T' is given twice",
                     ("netlist", lambda d: d["ports"].append({"name": "T"}), None)),
    "element_name": (lambda: dataclasses.replace(_NETLIST, elements=_element_renamed(1, "PBS1")),
                     "netlist element name 'PBS1' is given twice",
                     ("netlist", lambda d: _set_at("elements", 1, "name")(d, "PBS1"), None)),
    "encoding_port": (lambda: QubitEncoding("T", "T", "P"), "encoding port 'T' is given twice",
                      ("netlist", lambda d: _set_at("encoding", "control")(d, "T"), None)),
    "notch_anchor": (lambda: NotchCalibration(_ANCHORS_AT_ONE_LENGTH),
                     "notch anchor (input_pol, length_um) ('H', 1.0) is given twice",
                     ("physics", lambda d: _set_at("notch_anchors")(d, [
                         {"length_um": a.length_um, "input_pol": "H", "conversion": a.conversion}
                         for a in _ANCHORS_AT_ONE_LENGTH]), None)),
    "sensitivity_dimension": (
        lambda: CouplerPhysics(sensitivities=(("width", (0.1, 0.2)), ("width", (0.0, 0.0)))),
        "sensitivity dimension 'width' is given twice", None),
    "coupler_name": (lambda: CouplerPhysics(coupler_lengths=(("F1", 12.0), ("F1", 13.0))),
                     "coupler name 'F1' is given twice", None),
    "swept_coupler": (lambda: coupler_operators(_NETLIST, ("PBS1", "PBS1"), np.zeros((1, 2, 2)), 0.0),
                      "coupler 'PBS1' is given twice", None),
}


@pytest.mark.parametrize("make, message, file", ONCE_CASES.values(), ids=ONCE_CASES.keys())
def test_a_value_given_twice_is_named(make, message, file, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
    if file is not None:
        kind, edit, file_message = file
        code, err = _run_document(kind, _edited(kind, edit), tmp_path, capsys)
        assert code == 3
        assert err == f"validation error: {file_message or message}\n"


# The keys each object of a file must hold, by the object's path without
# list indices; any other key may be left out.
REQUIRED_KEYS = {
    ("netlist", ()): ("ports", "elements", "herald", "encoding"),
    ("netlist", ("ports",)): ("name",),
    ("netlist", ("elements",)): ("name", "kind", "ports"),
    ("netlist", ("herald",)): ("ports", "pols", "count"),
    ("netlist", ("encoding",)): ("target", "control", "program"),
    ("physics", ("notch_anchors",)): ("length_um", "input_pol", "conversion"),
}
KEY_PATHS = [(kind, path) for kind, doc in SHIPPED_DOCUMENTS.items()
             for path, _ in _locations(doc) if isinstance(path[-1], str)]


@pytest.mark.parametrize("edit", ["rename", "drop"])
@pytest.mark.parametrize("kind, path", KEY_PATHS,
                         ids=[f"{kind}-{'.'.join(map(str, path))}" for kind, path in KEY_PATHS])
def test_every_key_of_a_shipped_document_obeys_the_object_rule(kind, path, edit, tmp_path, capsys):
    key = path[-1]

    def edited(doc):
        for step in path[:-1]:
            doc = doc[step]
        value = doc.pop(key)
        if edit == "rename":
            doc[f"{key}_x"] = value

    code, err = _run_document(kind, _edited(kind, edited), tmp_path, capsys)
    assert "malformed" not in err and "Traceback" not in err
    parent = (kind, tuple(step for step in path[:-1] if isinstance(step, str)))
    if edit == "rename" and parent == ("physics", ("coupler_lengths_um",)):
        # a coupler length is keyed by an element name, and any name is taken
        assert code == 0
    elif edit == "rename":
        assert code == 3
        assert f"'{key}_x'" in err
    elif key in REQUIRED_KEYS.get(parent, ()):
        assert code == 3
        assert f"lacks key {key!r}" in err
    else:  # the key takes its default: a port's role, an element's params, a physics value
        assert "lacks key" not in err and "unknown key" not in err
        if path in (("ports", 0, "role"), ("elements", 0, "params")):
            assert code == 0
        elif code != 0:  # a parameter the element's kind needs, named
            assert code == 3
            assert "lacks parameter" in err and (key == "params" or repr(key) in err)
