import dataclasses
import math
import re

import numpy as np
import pytest

from fockgate import design, gate
from fockgate.fock import H, V
from fockgate.design import (
    COUPLER_DESIGNS,
    MAX_SWEEP_POINTS,
    CouplerPhysics,
    NotchAnchor,
    NotchCalibration,
    bar_power,
    cross_power,
    delta_theta,
    enumerate_v_perfect_lengths,
    solve_coupler_length,
    sweep_deltas,
    synthesize_imperfect_elements,
    tolerance_sweep,
)
from fockgate.gate import (
    BASIS_LABELS,
    COUPLER_KINDS,
    ElementSpec,
    Netlist,
    NetlistError,
    build_element,
    circuit_matrix,
    default_netlist,
    extract_gate,
    process_fidelity,
)

PHYS = CouplerPhysics()


# -- reference designs and physics validation ---------------------------------------


def test_coupler_designs_name_the_default_couplers_and_their_lengths():
    netlist = default_netlist()
    table = {
        name: design.reference_um
        for design in COUPLER_DESIGNS.values()
        for name in design.elements
    }
    for name in table:
        assert netlist.element(name).kind in COUPLER_KINDS
    assert dict(CouplerPhysics().coupler_lengths) == table
    assert {key: d.reference_um for key, d in COUPLER_DESIGNS.items()} == {
        "pbs": 70.72, "ppbs": 35.90, "f1": 12.00, "f2": 83.20
    }


INVALID_PHYSICS = {
    "nan_beat": (lambda: CouplerPhysics(beat_h=math.nan), "beat_h must be a finite number, got nan"),
    "infinite_beat": (lambda: CouplerPhysics(beat_v=math.inf), "beat_v must be a finite number, got inf"),
    "negative_beat": (lambda: CouplerPhysics(beat_v=-8.32), "beat_v must be positive, got -8.32"),
    "nan_sensitivity": (lambda: PHYS.with_sensitivities("width", math.nan, 0.0),
                        "sensitivity H for 'width' must be a finite number, got nan"),
    "negative_coupler_length": (lambda: CouplerPhysics(coupler_lengths=(("PBS1", -70.72),)),
                                "coupler length of 'PBS1' must be non-negative, got -70.72"),
    "nan_coupler_length": (lambda: CouplerPhysics(coupler_lengths=(("F1", math.nan),)),
                           "coupler length of 'F1' must be a finite number, got nan"),
    "notch_conversion_above_one": (lambda: NotchAnchor(0.75, V, 7.0),
                                   "notch anchor conversion must be in [0, 1], got 7.0"),
    "negative_notch_length": (lambda: NotchAnchor(-0.75, V, 0.25),
                              "notch anchor length_um must be non-negative, got -0.75"),
    # made until values built in Python obeyed the physics file's number rule
    "beat_true": (lambda: CouplerPhysics(beat_h=True), "beat_h must be a finite number, got True"),
    "beat_string": (lambda: CouplerPhysics(beat_h="35"), "beat_h must be a finite number, got '35'"),
    "sensitivity_true": (lambda: PHYS.with_sensitivities("width", True, 0.0),
                         "sensitivity H for 'width' must be a finite number, got True"),
    "notch_length_true": (lambda: NotchAnchor(True, V, 0.5),
                          "notch anchor length_um must be a finite number, got True"),
    "notch_pol_string": (lambda: NotchAnchor(1.0, "V", 0.5),
                         "notch anchor input_pol 'V' is not a Polarization (H or V)"),
    # a physics file cannot hold these: one name is one key
    "coupler_length_twice": (lambda: CouplerPhysics(coupler_lengths=(("F1", 12.0), ("F1", 13.0))),
                             "coupler name 'F1' is given twice"),
    "coupler_name_not_string": (lambda: CouplerPhysics(coupler_lengths=((1, 12.0),)),
                                "coupler_lengths must be a list of (key, value) pairs, got (1, 12.0)"),
    "coupler_lengths_dict": (lambda: CouplerPhysics(coupler_lengths={"F1": 12.0}),
                             "coupler_lengths must be a list of (key, value) pairs, got {'F1': 12.0}"),
    # containers of another type: AttributeError or TypeError, at once or when written out
    "notch_string": (lambda: CouplerPhysics(notch="x"), "notch must be a NotchCalibration, got 'x'"),
    "notch_anchor_tuple": (lambda: NotchCalibration(((1.0, "H", 0.5),)),
                           "notch anchors must be a list of NotchAnchors, got (1.0, 'H', 0.5)"),
    # a dict gave its keys and a set its items in hash order
    "notch_anchors_dict": (lambda: NotchCalibration(dict.fromkeys(design.DEFAULT_NOTCH_ANCHORS[:1], 0.5)),
                           f"notch anchors must be a list of NotchAnchors, got "
                           f"{dict.fromkeys(design.DEFAULT_NOTCH_ANCHORS[:1], 0.5)!r}"),
    "sensitivities_set": (lambda: CouplerPhysics(sensitivities={("width", (0.1, 0.2))}),
                          "sensitivities must be a list of (key, value) pairs, got {('width', (0.1, 0.2))}"),
    "notch_anchors_none": (lambda: NotchCalibration(None),
                           "notch anchors must be a list of NotchAnchors, got None"),
    "sensitivities_none": (lambda: CouplerPhysics(sensitivities=None),
                           "sensitivities must be a list of (key, value) pairs, got None"),
    "coupler_lengths_none": (lambda: CouplerPhysics(coupler_lengths=None),
                             "coupler_lengths must be a list of (key, value) pairs, got None"),
}


@pytest.mark.parametrize("make, message", INVALID_PHYSICS.values(), ids=INVALID_PHYSICS.keys())
def test_physics_construction_rejects_invalid_values(make, message):
    with pytest.raises(design.PhysicsError, match=f"^{re.escape(message)}$"):
        make()


# sensitivity shapes a physics file cannot hold, made in Python
BAD_SENSITIVITY_SHAPES = {
    # sensitivity("width", V) ended in "not enough values to unpack"
    "one_number": ((("width", (0.1,)),), "sensitivities for 'width' must be a tuple (H, V), got (0.1,)"),
    "three_numbers": ((("gap", (0.1, 0.2, 0.3)),),
                      "sensitivities for 'gap' must be a tuple (H, V), got (0.1, 0.2, 0.3)"),
    # save_physics wrote a file that load_physics refused
    "unknown_dimension": ((("bogus", (0.1, 0.2)),),
                          "unknown sensitivity dimension 'bogus'; expected one of ('width', 'height', 'gap')"),
    "dimension_twice": ((("width", (0.1, 0.2)), ("width", (0.0, 0.0))),
                        "sensitivity dimension 'width' is given twice"),
}


@pytest.mark.parametrize("sensitivities, message", BAD_SENSITIVITY_SHAPES.values(),
                         ids=BAD_SENSITIVITY_SHAPES.keys())
def test_physics_refuses_a_sensitivity_of_another_shape(sensitivities, message):
    with pytest.raises(design.PhysicsError, match=f"^{re.escape(message)}$"):
        CouplerPhysics(sensitivities=sensitivities)


def test_with_sensitivities_keeps_every_dimension():
    # the width-only physics used to drop gap, and reading the gap's H sensitivity raised KeyError
    physics = CouplerPhysics(sensitivities=(("width", (0.1, 0.2)),)).with_sensitivities("gap", 0.3, 0.3)
    assert dict(physics.sensitivities)["gap"][0] == 0.3
    assert physics.sensitivities == (("width", (0.1, 0.2)), ("height", (0.0, 0.0)), ("gap", (0.3, 0.3)))
    with pytest.raises(design.PhysicsError, match="^unknown sensitivity dimension 'length'"):
        PHYS.with_sensitivities("length", 0.1, 0.1)


def test_physics_stores_a_complete_table_of_floats():
    physics = CouplerPhysics(
        beat_h=36, beat_v=8, sensitivities=(("gap", (1, 0)),), coupler_lengths=(("PBS1", 71), ("F1", 12))
    )
    assert physics == CouplerPhysics(
        beat_h=36.0, beat_v=8.0,
        sensitivities=(("width", (0.0, 0.0)), ("height", (0.0, 0.0)), ("gap", (1.0, 0.0))),
        coupler_lengths=(("F1", 12.0), ("PBS1", 71.0)),
    )
    assert physics.coupler_lengths == (("F1", 12.0), ("PBS1", 71.0))  # sorted by name
    numbers = [physics.beat_h, physics.beat_v, *(s for _, pair in physics.sensitivities for s in pair),
               *(length for _, length in physics.coupler_lengths)]
    assert all(type(x) is float for x in numbers)
    anchor = NotchAnchor(1, H, 0)
    assert type(anchor.length_um) is float and type(anchor.conversion) is float
    assert enumerate_v_perfect_lengths(physics, (0.0, 10.0))[0].length_um.hex() == (8.0).hex()


# -- power exchange model --------------------------------------------------------


def test_cross_power_zero_length():
    assert cross_power(0.0, 8.32) == 0.0


def test_cross_power_half_cycle_full_transfer():
    assert abs(cross_power(4.16, 8.32) - 1.0) < 1e-12


def test_cross_power_periodicity():
    for L in (3.1, 17.9, 40.0):
        assert abs(cross_power(L + 35.8, 35.8) - cross_power(L, 35.8)) < 1e-12


def test_pbs_length_is_v_half_cycle_point():
    # 70.72 um = 8.5 V cycles: vertical polarization fully crosses
    assert abs(cross_power(70.72, 8.32) - 1.0) < 1e-12


def test_cross_power_rejects_bad_beat():
    with pytest.raises(ValueError):
        cross_power(1.0, 0.0)
    with pytest.raises(ValueError):
        cross_power(-1.0, 8.32)
    # not finite: refused by name, not blamed on the beat
    with pytest.raises(ValueError, match=r"^coupler length nan um is not finite$"):
        cross_power(math.nan, 8.32)
    with pytest.raises(ValueError, match=r"^coupler length inf um is not finite$"):
        cross_power(math.inf, 8.32)
    with pytest.raises(ValueError, match=r"^beat length nan um is not finite$"):
        cross_power(1.0, math.nan)
    # positive and finite, but pi L / beat overflows: a physics error naming both
    with pytest.raises(design.PhysicsError, match=r"beat length 5e-324 um .* 1\.0 um"):
        cross_power(1.0, 5e-324)


def test_energy_split_sums_to_one():
    for L in (0.0, 5.5, 23.456, 83.2):
        for beat in (8.32, 35.8):
            assert abs(cross_power(L, beat) + bar_power(L, beat) - 1.0) < 1e-15


# -- coupler length solving --------------------------------------------------------


def test_pbs_solution():
    sol = solve_coupler_length(
        PHYS, targets=(1.0, 0.0), weights=(1.0, 1e6), length_range=(60.0, 80.0)
    )[0]
    assert abs(sol.length_um - 70.72) <= 0.8
    assert sol.bar_h >= 0.99
    assert 1.0 - sol.bar_v >= 1.0 - 1e-6  # cross_V at the returned length


def test_ppbs_solution_matches_analytic():
    analytic = 8.32 * (4.0 + math.asin(math.sqrt(2.0 / 3.0)) / math.pi)
    sol = solve_coupler_length(
        PHYS, targets=(1.0, 1.0 / 3.0), weights=(1.0, 1.0), length_range=(30.0, 40.0)
    )[0]
    assert abs(sol.length_um - analytic) < 1e-3
    assert abs(sol.length_um - 35.90) / 35.90 <= 0.01


def test_f1_solution_matches_analytic():
    analytic = 35.8 * math.acos(0.5) / math.pi  # = 35.8 / 3
    sol = solve_coupler_length(
        PHYS, targets=(0.25, 0.0), weights=(1.0, 0.0), length_range=(5.0, 20.0)
    )[0]
    assert abs(sol.length_um - analytic) < 1e-3
    assert abs(sol.length_um - 12.00) / 12.00 <= 0.01


def test_solver_rejects_empty_range():
    with pytest.raises(ValueError):
        solve_coupler_length(PHYS, (1.0, 0.0), (1.0, 1.0), (10.0, 10.0))


@pytest.mark.parametrize("targets, bad", [((1.5, 0.0), 1.5), ((1.0, -0.1), -0.1)])
def test_solver_refuses_a_bar_power_target_outside_0_1(targets, bad):
    with pytest.raises(ValueError, match=rf"^bar-power target {bad} outside \[0, 1\]$"):
        solve_coupler_length(PHYS, targets, (1.0, 1.0), (60.0, 80.0))


@pytest.mark.parametrize("count", [0, -1, 1.5, True])
def test_solver_rejects_count_below_one(count):
    with pytest.raises(ValueError, match="count"):
        solve_coupler_length(PHYS, (1.0, 0.0), (1.0, 1.0), (60.0, 80.0), count=count)


@pytest.mark.parametrize("hi", [10_000.0, 1e308])
def test_solver_refuses_more_than_a_million_scan_points(hi):
    with pytest.raises(ValueError, match="more than 1000000 scan points"):
        solve_coupler_length(PHYS, (1.0, 0.0), (1.0, 1.0), (0.0, hi))


def test_solver_local_minimum_certificate():
    # every returned solution beats all grid points within one step of it
    step = design.GRID_STEP_UM
    sols = solve_coupler_length(
        PHYS, targets=(0.5, 0.5), weights=(1.0, 1.0), length_range=(10.0, 30.0),
    )
    def residual(L):
        return (bar_power(L, PHYS.beat_h) - 0.5) ** 2 + (
            bar_power(L, PHYS.beat_v) - 0.5
        ) ** 2
    for sol in sols:
        for offset in (-step, -step / 2, step / 2, step):
            probe = sol.length_um + offset
            if 10.0 <= probe <= 30.0:
                assert sol.residual <= residual(probe) + 1e-15


def test_solver_round_trip_recovers_length():
    for true_length in (7.3, 17.25, 29.8):
        targets = (
            bar_power(true_length, PHYS.beat_h),
            bar_power(true_length, PHYS.beat_v),
        )
        sols = solve_coupler_length(
            PHYS, targets=targets, weights=(1.0, 1.0), length_range=(0.0, 35.8),
            count=5,
        )
        best = min(abs(s.length_um - true_length) for s in sols)
        assert best < 1e-3


# -- V-preserving filter lengths ----------------------------------------------------


def test_v_perfect_lengths_80_90():
    sols = enumerate_v_perfect_lengths(PHYS, (80.0, 90.0))
    assert len(sols) == 1
    assert abs(sols[0].length_um - 83.20) < 1e-9
    # bar_H at the 10-cycle point misses the 1/3 target; report, not hide
    expected_bar_h = math.cos(math.pi * 83.20 / 35.80) ** 2
    assert abs(sols[0].bar_h - expected_bar_h) < 1e-12
    assert abs(sols[0].bar_h - 1.0 / 3.0) > 0.05


def test_v_perfect_lengths_first_multiple():
    sols = enumerate_v_perfect_lengths(PHYS, (0.0, 10.0))
    assert [round(s.length_um, 2) for s in sols] == [8.32]


@pytest.mark.parametrize("count", [1, 3, 7, 50])
def test_v_perfect_lengths_keep_the_shortest_count(count):
    every = enumerate_v_perfect_lengths(PHYS, (0.0, 60.0))
    assert len(every) == 7
    assert enumerate_v_perfect_lengths(PHYS, (0.0, 60.0), count) == every[:count]


def test_v_perfect_lengths_stop_at_count(monkeypatch):
    calls = []

    def counting(length_um, beat_um):
        calls.append(length_um)
        return bar_power(length_um, beat_um)

    monkeypatch.setattr(design, "bar_power", counting)
    sols = enumerate_v_perfect_lengths(PHYS, (0.0, PHYS.beat_v * 100_000), count=2)
    assert [round(s.length_um, 2) for s in sols] == [8.32, 16.64]
    assert len(calls) == 4  # bar_H and bar_V of each kept length


@pytest.mark.parametrize("count", [0, -1, 1.5, True])
def test_v_perfect_lengths_reject_count_below_one(count):
    with pytest.raises(ValueError, match="count"):
        enumerate_v_perfect_lengths(PHYS, (0.0, 60.0), count)


@pytest.mark.parametrize("solve", [
    lambda length_range: enumerate_v_perfect_lengths(PHYS, length_range),
    lambda length_range: solve_coupler_length(PHYS, (1.0, 0.0), (1.0, 1.0), length_range),
], ids=["v_perfect", "solver"])
@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_a_length_range_names_a_bound_that_is_not_finite(solve, bound):
    # (0, inf) blamed the V beat: "beat length 8.32 um is too short ..."
    with pytest.raises(ValueError, match=rf"^length range bound {bound} um is not finite$") as caught:
        solve((0.0, bound))
    assert not isinstance(caught.value, design.PhysicsError)


@pytest.mark.parametrize("hi", [PHYS.beat_v * 10**6, 1e308])
def test_v_perfect_lengths_refuse_a_million_beats(hi):
    with pytest.raises(ValueError, match="1000000 or more V beats"):
        enumerate_v_perfect_lengths(PHYS, (0.0, hi))


# -- notch calibration ----------------------------------------------------------------


def test_notch_anchors_reproduced_exactly():
    cal = NotchCalibration()
    assert cal.conversion(0.75, V) == 0.25
    assert cal.conversion(2.75, V) == 0.50
    assert cal.conversion(2.90, H) == 0.50


def test_notch_interpolation_between_anchors():
    cal = NotchCalibration()
    mid = cal.conversion((0.75 + 2.75) / 2, V)
    assert abs(mid - (0.25 + 0.50) / 2) < 1e-15


def test_notch_rejects_out_of_span():
    cal = NotchCalibration()
    for length, pol in ((0.5, V), (3.0, V), (2.8, H), (3.0, H)):
        with pytest.raises(ValueError, match="span"):
            cal.conversion(length, pol)


def test_notch_custom_anchor_table():
    cal = NotchCalibration(
        (
            NotchAnchor(1.0, H, 0.1),
            NotchAnchor(2.0, H, 0.3),
            NotchAnchor(3.0, H, 0.9),
        )
    )
    assert cal.conversion(1.0, H) == 0.1
    assert abs(cal.conversion(1.5, H) - 0.2) < 1e-15
    assert abs(cal.conversion(2.5, H) - 0.6) < 1e-15


@pytest.mark.parametrize("first, second", [(0.1, 0.5), (0.5, 0.1)])
def test_notch_calibration_refuses_two_anchors_at_one_length(first, second):
    # conversion(1.0, H) was the first anchor's: 0.1 in one order, 0.5 in the other
    message = "notch anchor (input_pol, length_um) ('H', 1.0) is given twice"
    with pytest.raises(design.PhysicsError, match=f"^{re.escape(message)}$"):
        NotchCalibration((NotchAnchor(1.0, H, first), NotchAnchor(1, H, second), NotchAnchor(2.0, H, 0.9)))
    cal = NotchCalibration((NotchAnchor(1.0, H, first), NotchAnchor(1.0, V, second)))
    assert (cal.conversion(1.0, H), cal.conversion(1.0, V)) == (first, second)


def test_notch_calibration_without_anchors_names_the_polarization():
    cal = NotchCalibration([NotchAnchor(1.0, V, 0.5)])
    assert cal.anchors == (NotchAnchor(1.0, V, 0.5),)
    with pytest.raises(ValueError, match="^no calibration anchors for input polarization H$"):
        cal.conversion(1.0, H)


# -- imperfect element synthesis --------------------------------------------------------


def test_delta_theta_zero_at_no_perturbation():
    assert delta_theta(70.72, 8.32, 0.01, 0.0) == 0.0


def test_synthesize_zero_delta_matches_ideal():
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    overrides = synthesize_imperfect_elements(netlist, physics, "width", 0.0)
    assert set(overrides) == {"PBS1", "PBS2", "PBS3", "PPBS", "F1", "F2"}
    for name, el in overrides.items():
        ideal = build_element(netlist.element(name))
        synth = build_element(el)
        assert np.max(np.abs(synth.matrix - ideal.matrix)) < 1e-12


def test_synthesize_requires_sensitivities():
    netlist = default_netlist()
    with pytest.raises(ValueError, match="sensitivities"):
        synthesize_imperfect_elements(netlist, PHYS, "width", 5.0)


def test_synthesize_warns_beyond_envelope():
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("gap", 0.002, 0.002)
    with pytest.warns(UserWarning, match="10 nm"):
        synthesize_imperfect_elements(netlist, physics, "gap", 12.0)


def test_synthesized_pbs_bar_drops_under_width_increase():
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    overrides = synthesize_imperfect_elements(netlist, physics, "width", 10.0)
    p = overrides["PBS1"].param_dict
    # positive beat shift at fixed length reduces both coupling angles
    assert math.cos(p["theta_h"]) ** 2 < 1.0
    assert math.sin(p["theta_v"]) ** 2 < 1.0  # cross_V below unity


def test_delta_theta_float_gives_float_and_array_gives_array():
    deltas = np.array([-10.0, -0.5, 0.0, 3.0, 10.0])
    drifts = delta_theta(70.72, 8.32, 0.004, deltas)
    assert isinstance(drifts, np.ndarray) and drifts.shape == deltas.shape
    for d, drift in zip(deltas.tolist(), drifts.tolist()):
        scalar = delta_theta(70.72, 8.32, 0.004, d)
        assert type(scalar) is float
        assert scalar == drift


def test_delta_theta_rejects_any_non_positive_beat():
    # only the last delta pushes the V beat (8.32 um) through zero
    deltas = np.arange(-10.0, 11.0)
    delta_theta(70.72, 8.32, -0.9, deltas[:-1])
    with pytest.raises(design.PhysicsError, match="non-positive"):
        delta_theta(70.72, 8.32, -0.9, deltas)


def test_delta_theta_rejects_a_beat_past_the_float_range():
    # 1e308 + 1e308 * 10 overflows to inf; the suite turns any numpy warning into an error
    delta_theta(70.72, 1e308, 1e308, np.array([-0.5, 0.0, 0.5]))
    with pytest.raises(design.PhysicsError, match="inf um at delta 10.0 nm is not finite"):
        delta_theta(70.72, 1e308, 1e308, np.array([0.0, 10.0]))


def test_perturbed_angles_name_the_element_whose_angle_is_not_finite():
    physics = CouplerPhysics(
        coupler_lengths=(("F2", 83.2), ("PPBS", 1e308))
    ).with_sensitivities("gap", 0.002, 0.0)
    with pytest.raises(design.PhysicsError, match=r"element 'PPBS': coupling angle theta_h at delta -1.0 nm"):
        design.perturbed_angles(default_netlist(), physics, "gap", np.array([-1.0, 0.0]))


def test_perturbed_angles_on_a_delta_array_match_synthesize_per_delta():
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("height", -0.003, 0.005)
    deltas = np.array([-6.0, 0.0, 2.5])
    names, angles = design.perturbed_angles(netlist, physics, "height", deltas)
    assert angles.shape == (3, len(names), 2)
    for k, d in enumerate(deltas.tolist()):
        single = synthesize_imperfect_elements(netlist, physics, "height", d)
        assert tuple(single) == names
        for c, el in enumerate(single.values()):
            for pol, key in enumerate(("theta_h", "theta_v")):
                assert type(el.param_dict[key]) is float
                assert angles[k, c, pol] == el.param_dict[key]
    # one deviation is one device: an array of them is refused with a message
    for grid in (deltas, [0.0, 1.0], np.zeros((2, 2))):
        with pytest.raises(ValueError, match="an array of shape .*; perturbed_angles takes a grid"):
            synthesize_imperfect_elements(netlist, physics, "height", grid)


def test_perturbed_angles_require_sensitivities_for_any_nonzero_delta():
    netlist = default_netlist()
    design.perturbed_angles(netlist, PHYS, "width", np.zeros(3))
    with pytest.raises(ValueError, match="sensitivities"):
        design.perturbed_angles(netlist, PHYS, "width", np.array([0.0, 0.0, 1.0]))


def test_perturbed_angles_warn_beyond_envelope():
    physics = PHYS.with_sensitivities("gap", 0.002, 0.002)
    with pytest.warns(UserWarning, match="10 nm"):
        design.perturbed_angles(default_netlist(), physics, "gap", np.array([0.0, -10.5]))


# -- tolerance sweep ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_rows():
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    return tolerance_sweep(netlist, physics, "width", (-10.0, 10.0), 1.0, phi=math.pi)


def test_sweep_grid_size(sweep_rows):
    assert len(sweep_rows) == 21
    assert [r.delta_nm for r in sweep_rows] == sorted(r.delta_nm for r in sweep_rows)


def test_sweep_nominal_row(sweep_rows):
    row = next(r for r in sweep_rows if r.delta_nm == 0.0)
    assert row.fidelity >= 1 - 1e-9
    for p in row.herald_probabilities:
        assert abs(p - 1 / 48) < 1e-9


def test_sweep_fidelity_monotone_in_abs_delta(sweep_rows):
    for sign in (-1, 1):
        branch = sorted(
            (r for r in sweep_rows if sign * r.delta_nm >= 0),
            key=lambda r: abs(r.delta_nm),
        )
        fids = [r.fidelity for r in branch]
        for a, b in zip(fids, fids[1:]):
            assert b <= a + 1e-12


def test_sweep_not_symmetric_in_general(sweep_rows):
    # the beat-shift model is not odd in delta, so the fidelity column is
    # not expected to be symmetric even for symmetric sensitivities
    left = next(r for r in sweep_rows if r.delta_nm == -10.0)
    right = next(r for r in sweep_rows if r.delta_nm == 10.0)
    assert abs(left.fidelity - right.fidelity) > 1e-6


@pytest.mark.parametrize("step, count", [(1.0, 21), (0.5, 41), (0.25, 81), (0.1, 201), (20.0, 2)])
def test_sweep_deltas_keep_hi_when_the_step_divides_the_range(step, count):
    deltas = sweep_deltas((-10.0, 10.0), step)
    assert deltas == [-10.0 + i * step for i in range(count)]
    assert abs(deltas[-1] - 10.0) < 1e-12


def test_sweep_deltas_slack_keeps_hi_below_a_rounding_error():
    assert 0.7 / 0.1 < 7
    assert len(sweep_deltas((0.0, 0.7), 0.1)) == 8


@pytest.mark.parametrize("step, last", [(3.0, 8.0), (0.7, 9.6), (7.0, 4.0), (0.3, 9.8)])
def test_sweep_deltas_end_at_the_last_point_not_above_hi(step, last):
    deltas = sweep_deltas((-10.0, 10.0), step)
    assert deltas == [-10.0 + i * step for i in range(len(deltas))]
    assert abs(deltas[-1] - last) < 1e-12
    assert deltas[-1] <= 10.0 < deltas[-1] + step


def test_sweep_deltas_refuse_a_last_index_at_the_limit():
    # (hi - lo) / step plus the slack is exactly 10001.0: a grid of 10002 points
    with pytest.raises(ValueError, match="more than 10001 points"):
        sweep_deltas((0.0, MAX_SWEEP_POINTS - 1e-9), 1.0)


def test_sweep_deltas_limit_the_grid_size():
    assert len(sweep_deltas((0.0, 10_000.0), 1.0)) == MAX_SWEEP_POINTS
    for delta_range, step in (((0.0, 10_001.0), 1.0), ((-1e300, 1e300), 1.0),
                              ((-1e308, 1e308), 1.0), ((0.0, 1.0), 1e-300)):
        with pytest.raises(ValueError, match="more than 10001 points"):
            sweep_deltas(delta_range, step)


@pytest.mark.parametrize("delta_range, step, named", [
    ((math.nan, 5.0), 1.0, "delta range bound nan nm"),
    ((-5.0, math.inf), 1.0, "delta range bound inf nm"),
    ((-math.inf, 5.0), 1.0, "delta range bound -inf nm"),
    ((-5.0, 5.0), math.nan, "step nan nm"),
    ((-5.0, 5.0), math.inf, "step inf nm"),
])
def test_sweep_deltas_name_a_non_finite_bound_or_step(delta_range, step, named):
    with pytest.raises(ValueError, match=f"^{named} is not finite$"):
        sweep_deltas(delta_range, step)


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_sweep_names_a_non_finite_phase(phi):
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    no_couplers = dataclasses.replace(physics, coupler_lengths=())
    assert tolerance_sweep(default_netlist(), no_couplers, "width", (-2.0, 2.0), 1.0)
    for sweep_physics in (physics, no_couplers):
        with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
            tolerance_sweep(default_netlist(), sweep_physics, "width", (-2.0, 2.0), 1.0, phi=phi)


def test_sweep_refuses_an_oversized_grid():
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    with pytest.raises(ValueError, match="more than 10001 points"):
        tolerance_sweep(default_netlist(), physics, "width", (-1e300, 1e300), 1.0)


def test_sweep_rejects_bad_step():
    with pytest.raises(ValueError):
        tolerance_sweep(default_netlist(), PHYS, "width", (-1.0, 1.0), 0.0)


def test_sweep_rejects_grid_whose_last_point_breaks_the_beat():
    physics = PHYS.with_sensitivities("width", 0.004, -0.9)
    tolerance_sweep(default_netlist(), physics, "width", (-10.0, 9.0), 1.0)
    with pytest.raises(ValueError, match="non-positive"):
        tolerance_sweep(default_netlist(), physics, "width", (-10.0, 10.0), 1.0)


def test_sweep_warns_beyond_envelope():
    physics = PHYS.with_sensitivities("gap", 0.002, 0.002)
    with pytest.warns(UserWarning, match="10 nm"):
        rows = tolerance_sweep(default_netlist(), physics, "gap", (-12.0, 12.0), 4.0)
    assert [r.delta_nm for r in rows] == [-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0]


def test_sweep_of_near_unitary_netlist_raises_netlist_error():
    # each Hadamard plate passes the per-element 1e-12 check and the nominal
    # circuit composes, but the perturbed circuits are not unitary within 1e-12
    a = (1 + 4.9e-13) / math.sqrt(2)
    plate = [[a, a], [a, -a]]
    netlist = default_netlist()
    netlist = netlist.with_overrides(
        {name: ElementSpec(name, "waveplate", ("L",), (("matrix", plate),))
         for name in ("HWP2", "HWP3")}
    )
    circuit_matrix(netlist)
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    with pytest.raises(NetlistError, match="not unitary"):
        tolerance_sweep(netlist, physics, "width", (-10.0, 10.0), 1.0)


def test_sweep_of_a_netlist_outside_the_bound_checks_its_circuits_and_keeps_the_bits():
    # plates 1e-13 off unitarity: a sweep may not skip the 1e-12 check, which its circuits pass
    netlist = default_netlist()
    netlist = netlist.with_overrides({
        el.name: gate.spec(el.name, "waveplate", el.ports,
                           matrix=(gate.build_element(el).matrix * (1 + 1e-13)).tolist())
        for el in netlist.elements if len(el.ports) == 1
    })
    assert not netlist._steps_near_unitary
    assert default_netlist()._steps_near_unitary
    physics = PHYS.with_sensitivities("gap", 0.005, -0.004)
    rows = tolerance_sweep(netlist, physics, "gap", (-10.0, 10.0), 2.5, phi=1.7)
    _assert_rows_equal_their_own_extraction(netlist, physics, "gap", rows, range(len(rows)), 1.7)


def test_sweep_without_coupler_lengths_repeats_the_nominal_gate():
    # nothing is perturbed, so one circuit matrix serves every grid point
    physics = CouplerPhysics(coupler_lengths=()).with_sensitivities("width", 0.004, 0.004)
    rows = tolerance_sweep(default_netlist(), physics, "width", (-2.0, 2.0), 1.0, phi=1.0)
    nominal = extract_gate(default_netlist(), 1.0)
    assert len(rows) == 5
    for row in rows:
        assert row.element_bars == ()
        assert list(row.herald_probabilities) == list(nominal.herald_probability.values())
        assert row.fidelity == nominal.fidelity


OWN_ANGLE_OVERRIDES = {
    "PPBS": {"theta_h": 0.2},
    "PBS3": {"theta_h": 0.1},
    "F1": {"theta_h": 0.9},
}


@pytest.mark.parametrize("name", OWN_ANGLE_OVERRIDES)
def test_sweep_at_zero_delta_keeps_an_elements_own_angles(name):
    netlist = default_netlist()
    el = netlist.element(name).with_params(**OWN_ANGLE_OVERRIDES[name])
    netlist = netlist.with_overrides({name: el})
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    (row,) = tolerance_sweep(netlist, physics, "width", (0.0, 0.0), 1.0, phi=1.0)
    gate = extract_gate(netlist, 1.0)
    assert gate.fidelity < 1 - 1e-3
    assert abs(row.fidelity - gate.fidelity) <= 1e-12
    for p, q in zip(row.herald_probabilities, gate.herald_probability.values()):
        assert abs(p - q) <= 1e-12


# -- a sweep evaluated in batches over the netlist's own structure -------------------


def _row_bits(row):
    return (
        row.delta_nm.hex(),
        [(name, bar_h.hex(), bar_v.hex()) for name, bar_h, bar_v in row.element_bars],
        [p.hex() for p in row.herald_probabilities],
        row.fidelity.hex(),
    )


def test_two_sweeps_plan_their_structure_once(monkeypatch):
    gathers, occupations, built, composed, copies = [], [], [], [], []
    read, resolved, deviations = [], [], []

    def spy(log, fn, record=lambda *args: args):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.append(record(*args, result))
            return result
        return wrapper

    monkeypatch.setattr(gate, "_gather", spy(gathers, gate._gather))
    monkeypatch.setattr(Netlist, "input_occupation", spy(occupations, Netlist.input_occupation))
    monkeypatch.setattr(gate, "build_element", spy(built, build_element, lambda el, _: el.name))
    monkeypatch.setattr(gate, "compose_rows", spy(composed, gate.compose_rows))
    monkeypatch.setattr(Netlist, "__post_init__", spy(copies, Netlist.__post_init__))
    monkeypatch.setattr(design, "coupler_angles",
                        spy(read, design.coupler_angles, lambda el, _: el.name))
    monkeypatch.setattr(gate, "column_placement", spy(resolved, gate.column_placement))
    monkeypatch.setattr(gate, "isometry_deviation", spy(deviations, gate.isometry_deviation))
    netlist = default_netlist()
    readout = netlist.readout
    copies.clear()
    physics = PHYS.with_sensitivities("width", 0.004, -0.002).with_sensitivities("gap", 0.003, 0.001)
    for dimension in ("width", "gap"):
        tolerance_sweep(netlist, physics, dimension, (-10.0, 10.0), 1.0, phi=0.8)
    assert len(gathers) == 1  # the basis inputs' gather, which the readout reads too
    assert netlist.readout is readout  # the logical readout, computed once
    assert len(occupations) == 8  # the basis inputs, once
    assert copies == []  # no netlist copy, perturbed or not
    assert len(built) == len(set(built)) <= len(netlist.elements)  # each element at most once
    assert len(composed) == 2  # one composition per batch of 21 points, of the gather's rows
    assert all(rows is netlist._row_block[0] for *_, rows, _ in composed)
    # each coupler's own angles read once per sweep, not per batch or point
    assert sorted(read) == sorted(2 * ["PBS1", "F1", "PPBS", "F2", "PBS3", "PBS2"])
    assert len(resolved) == len(netlist.steps)  # each step's columns placed once
    for _, placements, *_ in composed:  # and passed as they were placed
        assert all(at is step.at for at, step in zip(placements, netlist.steps))
    # the unitarity bound: one deviation per step, computed once across both sweeps
    assert len(deviations) == len(netlist.steps)


@pytest.mark.parametrize("batch", [1, 7])
def test_sweep_rows_do_not_depend_on_the_batch_size(monkeypatch, batch):
    physics = PHYS.with_sensitivities("height", -0.005, 0.004)
    sweep = (default_netlist(), physics, "height", (-10.0, 10.0), 0.5)
    whole = [_row_bits(r) for r in tolerance_sweep(*sweep, phi=2.1)]
    assert len(whole) == 41 <= design._SWEEP_BATCH
    monkeypatch.setattr(design, "_SWEEP_BATCH", batch)
    assert [_row_bits(r) for r in tolerance_sweep(*sweep, phi=2.1)] == whole


def test_sweep_in_batches_keeps_one_warning_and_the_beat_check(monkeypatch):
    monkeypatch.setattr(design, "_SWEEP_BATCH", 2)
    with pytest.warns(UserWarning, match="10 nm") as caught:
        tolerance_sweep(default_netlist(), PHYS.with_sensitivities("gap", 0.002, 0.002),
                        "gap", (-12.0, 12.0), 4.0)
    assert len(caught) == 1
    physics = PHYS.with_sensitivities("width", 0.004, -0.9)
    with pytest.raises(ValueError, match="non-positive"):
        tolerance_sweep(default_netlist(), physics, "width", (-10.0, 10.0), 1.0)


def test_sweep_rows_equal_extract_gate_bit_for_bit():
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("gap", 0.005, -0.004)
    rows = tolerance_sweep(netlist, physics, "gap", (-10.0, 10.0), 2.5, phi=1.7)
    for row in rows:
        perturbed = netlist.with_overrides(
            synthesize_imperfect_elements(netlist, physics, "gap", row.delta_nm)
        )
        single = extract_gate(perturbed, 1.7)
        assert row.herald_probabilities == tuple(single.herald_probability[b] for b in BASIS_LABELS)
        assert row.fidelity == single.fidelity == process_fidelity(single.operator, gate.ideal_cphase(1.7))


def test_sweep_of_a_copy_after_its_parent_reads_the_copys_own_couplers():
    # the parent's steps are realized first; the copy realizes its own
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("width", 0.005, -0.003)
    tolerance_sweep(netlist, physics, "width", (-10.0, 10.0), 2.0, phi=0.9)
    copy = netlist.with_overrides({"PPBS": netlist.element("PPBS").with_params(theta_h=0.2)})
    rows = tolerance_sweep(copy, physics, "width", (-10.0, 10.0), 2.0, phi=0.9)
    _assert_rows_equal_their_own_extraction(copy, physics, "width", rows, range(len(rows)), 0.9)


def test_a_coupler_without_a_length_is_read_only_by_the_sweep_that_realizes_it():
    # FX has no design length: the sweep realizes it as given and never perturbs it
    netlist = default_netlist()
    netlist = dataclasses.replace(
        netlist,
        elements=netlist.elements + (gate.spec("FX", "filter", ("C", "F2_LOSS"), t_h=0.8, t_v=1.0),),
    )
    physics = PHYS.with_sensitivities("gap", 0.003, 0.002)
    overrides = synthesize_imperfect_elements(netlist, physics, "gap", 1.5)
    assert sorted(overrides) == ["F1", "F2", "PBS1", "PBS2", "PBS3", "PPBS"]
    rows = tolerance_sweep(netlist, physics, "gap", (-2.0, 2.0), 1.0)
    assert all("FX" not in [name for name, _, _ in row.element_bars] for row in rows)
    _assert_rows_equal_their_own_extraction(netlist, physics, "gap", rows, range(len(rows)), math.pi)
    # a filter that lacks t_h is refused when it is made
    with pytest.raises(NetlistError, match="^element 'FX' of kind 'filter' lacks parameter 't_h'$"):
        gate.spec("FX", "filter", ("C", "F2_LOSS"), t_v=1.0)


def _assert_rows_equal_their_own_extraction(netlist, physics, dimension, rows, picked, phi):
    for k in picked:
        row = rows[k]
        overrides = synthesize_imperfect_elements(netlist, physics, dimension, row.delta_nm)
        single = extract_gate(netlist.with_overrides(overrides), phi)
        probs = single.herald_probability
        assert row.herald_probabilities == tuple(probs[b] for b in BASIS_LABELS)
        assert row.fidelity == single.fidelity
        angles = {name: el.param_dict for name, el in overrides.items()}
        assert row.element_bars == tuple(
            (name, math.cos(p["theta_h"]) ** 2, math.cos(p["theta_v"]) ** 2)
            for name, p in sorted(angles.items())
        )


def test_a_refused_write_into_a_realized_plate_leaves_swept_and_fresh_netlists_alone():
    # such a write once reached the preset that every HWP1 step held: a new sweep of a
    # swept netlist read p10 = p11 = 0.006944 and F = 0.933 at delta 0, without an error
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("width", 0.004, 0.004)
    before = [_row_bits(r) for r in tolerance_sweep(netlist, physics, "width", phi=math.pi)]
    extract_gate(netlist, math.pi)
    with pytest.raises(ValueError, match="read-only"):
        build_element(gate.spec("X", "waveplate", ("a",), preset="hwp1")).matrix[1, 1] = 0.5
    rows = tolerance_sweep(netlist, physics, "width", phi=math.pi)
    assert [_row_bits(r) for r in rows] == before
    assert rows[10].delta_nm == 0.0
    _assert_rows_equal_their_own_extraction(netlist, physics, "width", rows, [10], math.pi)
    for nl in (netlist, default_netlist()):
        result = extract_gate(nl, math.pi)
        assert result.fidelity >= 1 - 1e-12
        assert all(abs(p - 1 / 48) <= 1e-12 for p in result.herald_probability.values())


@pytest.mark.parametrize("old, new", [("PBS1", "PBS_1"), ("F2", "HWP1")])
def test_a_length_that_names_no_coupler_of_the_netlist_is_refused(old, new):
    # a misspelt name once left its coupler at its nominal angles without a word
    lengths = tuple((new if name == old else name, um) for name, um in PHYS.coupler_lengths)
    physics = CouplerPhysics(coupler_lengths=lengths).with_sensitivities("width", 0.004, 0.004)
    message = (f"coupler length {new!r} names no pbs, ppbs or filter of the netlist "
               "(its couplers: PBS1, F1, PPBS, F2, PBS3, PBS2)")
    for sweep in (lambda: tolerance_sweep(default_netlist(), physics, "width"),
                  lambda: synthesize_imperfect_elements(default_netlist(), physics, "width", 0.0)):
        with pytest.raises(design.PhysicsError, match=f"^{re.escape(message)}$"):
            sweep()


def test_sweep_batch_edges_equal_extract_gate_bit_for_bit():
    # 129 points: batches of 64, 64 and 1; the first and last row of each batch
    netlist = default_netlist()
    physics = PHYS.with_sensitivities("height", 0.006, -0.005)
    rows = tolerance_sweep(netlist, physics, "height", (-6.4, 6.4), 0.1, phi=0.35)
    assert len(rows) == 129 and design._SWEEP_BATCH == 64
    _assert_rows_equal_their_own_extraction(
        netlist, physics, "height", rows, (0, 63, 64, 127, 128), 0.35
    )


def test_sweep_of_a_ppbs_with_its_own_angle_equals_extract_gate_bit_for_bit():
    netlist = default_netlist()
    netlist = netlist.with_overrides({"PPBS": netlist.element("PPBS").with_params(theta_h=0.15)})
    physics = PHYS.with_sensitivities("gap", -0.004, 0.003)
    rows = tolerance_sweep(netlist, physics, "gap", (-10.0, 10.0), 2.0, phi=2.6)
    names = [name for name, _, _ in rows[0].element_bars]
    assert names == ["F1", "F2", "PBS1", "PBS2", "PBS3", "PPBS"]
    _assert_rows_equal_their_own_extraction(netlist, physics, "gap", rows, range(len(rows)), 2.6)
    ppbs_h = [bar_h for row in rows for name, bar_h, _ in row.element_bars if name == "PPBS"]
    assert ppbs_h[5] == math.cos(0.15) ** 2  # delta 0 keeps the element's own angle
