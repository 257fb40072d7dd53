import cmath
import math

import numpy as np
import pytest

from fockgate.design import CouplerPhysics, synthesize_imperfect_elements
from fockgate.fock import H, V, HeraldPattern, Mode, norm_squared
from fockgate.elements import attenuating_filter
from fockgate.io import netlist_from_dict, netlist_to_dict
from fockgate.gate import (
    BASIS_LABELS,
    ELEMENT_ARITY,
    ELEMENT_PARAMS,
    ElementSpec,
    HeraldTerm,
    Netlist,
    NetlistError,
    PortDecl,
    ProgramState,
    QubitEncoding,
    build_element,
    circuit_matrix,
    coupler_angles,
    default_netlist,
    extract_gate,
    heralded_operators,
    heralded_output_amplitudes,
    heralded_transfer,
    ideal_cphase,
    prepare_input,
    process_fidelity,
    run_heralded,
    spec,
)

A48 = 1 / math.sqrt(48.0)  # heralded amplitude of every basis path
PHIS = (0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2)


@pytest.fixture(scope="module")
def netlist():
    return default_netlist()


# -- netlist structure ---------------------------------------------------------


def test_element_census(netlist):
    census = netlist.census()
    assert census["pbs"] == 3
    assert census["ppbs"] == 1
    assert census["filter"] == 2
    assert census["waveplate"] == 3


def test_netlist_validates(netlist):
    netlist.validate()
    # herald carries the three success conditions: one photon at each
    # io output plus the detector click
    herald_ports = {t.ports[0] for t in netlist.herald}
    assert herald_ports == {"T", "C", "P"}
    assert all(t.count == 1 for t in netlist.herald)


def test_netlist_rejects_unknown_port():
    with pytest.raises(NetlistError, match="undeclared"):
        Netlist(
            (PortDecl("a", "io"), PortDecl("b", "io"), PortDecl("c", "io")),
            (spec("X", "pbs", ("a", "zz")),),
            (HeraldTerm(("a",), (H, V), 1),),
            QubitEncoding("a", "b", "c"),
        )


def test_netlist_rejects_duplicate_elements():
    with pytest.raises(NetlistError, match="duplicate"):
        Netlist(
            (PortDecl("a", "io"), PortDecl("b", "io"), PortDecl("c", "io")),
            (spec("X", "waveplate", ("a",), preset="hadamard"),
             spec("X", "waveplate", ("b",), preset="hadamard")),
            (HeraldTerm(("a",), (H, V), 1),),
            QubitEncoding("a", "b", "c"),
        )


def _reordered_netlist():
    data = netlist_to_dict(default_netlist())
    data["ports"] = data["ports"][::-1]
    return netlist_from_dict(data)


@pytest.mark.parametrize("make", [default_netlist, _reordered_netlist], ids=["default", "reordered"])
def test_columns_index_modes_and_place_the_herald(make):
    nl = make()
    assert nl.columns == {m: list(nl.modes).index(m) for m in nl.modes}
    constraints = [
        ([Mode(p, pol) for p in term.ports for pol in term.pols], term.count)
        for term in nl.herald
    ]
    assert nl.herald_pattern() == HeraldPattern.on_modes(nl.modes, constraints)


def test_reordered_ports_reorder_the_columns():
    assert _reordered_netlist().columns[Mode("F2_LOSS", H)] == 0


def test_with_overrides_keeps_modes_and_columns(netlist):
    tuned = netlist.with_overrides({"F1": netlist.element("F1").with_params(t_h=0.4)})
    assert tuned.modes == netlist.modes
    assert tuned.columns == netlist.columns


def test_netlists_compare_and_hash_by_their_fields():
    a, b = default_netlist(), default_netlist()
    assert a == b and hash(a) == hash(b)


def test_with_overrides_unknown_name_rejected(netlist):
    with pytest.raises(KeyError):
        netlist.with_overrides({"NOPE": spec("NOPE", "pbs", ("T", "L"))})


# -- input preparation ----------------------------------------------------------


def test_prepare_input_basis_term_count(netlist):
    state = prepare_input(netlist, (1, 0), (1, 0), ProgramState(0.0))
    assert len(state) == 2  # program photon carries the only superposition
    assert abs(norm_squared(state) - 1.0) < 1e-12


def test_prepare_input_superposition_terms(netlist):
    r2 = 1 / math.sqrt(2)
    state = prepare_input(netlist, (r2, r2), (0, 1), ProgramState(math.pi))
    assert len(state) == 4
    assert abs(norm_squared(state) - 1.0) < 1e-12


def test_prepare_input_rejects_unnormalized(netlist):
    with pytest.raises(ValueError):
        prepare_input(netlist, (1, 1), (1, 0), ProgramState(0.0))


# -- heralded behavior ----------------------------------------------------------


def test_identity_on_00(netlist):
    for phi in (0.0, 1.1):
        state = prepare_input(netlist, (1, 0), (1, 0), ProgramState(phi))
        branch, prob = run_heralded(netlist, state)
        assert abs(prob - 1 / 48) < 1e-9
        amps = heralded_output_amplitudes(netlist, branch)
        assert abs(amps[0] - A48) < 1e-12
        assert max(abs(a) for a in amps[1:]) < 1e-12


def test_phase_on_11(netlist):
    phi = 2.3
    state = prepare_input(netlist, (0, 1), (0, 1), ProgramState(phi))
    branch, prob = run_heralded(netlist, state)
    assert abs(prob - 1 / 48) < 1e-9
    amps = heralded_output_amplitudes(netlist, branch)
    assert abs(amps[3] - A48 * cmath.exp(1j * phi)) < 1e-12
    assert max(abs(a) for a in amps[:3]) < 1e-12


def test_herald_probability_uniform_over_basis_and_phi(netlist):
    for phi in PHIS:
        result = extract_gate(netlist, phi)
        for prob in result.herald_probability.values():
            assert abs(prob - 1 / 48) < 1e-9


def test_extract_gate_zero_phase_identity(netlist):
    result = extract_gate(netlist, 0.0)
    assert result.fidelity >= 1 - 1e-9
    assert np.allclose(result.operator, A48 * np.eye(4), atol=1e-12)


def test_extract_gate_pi_is_cz(netlist):
    result = extract_gate(netlist, math.pi)
    assert result.fidelity >= 1 - 1e-9
    assert np.allclose(
        result.operator, A48 * np.diag([1, 1, 1, -1]), atol=1e-12
    )


def test_offdiagonals_vanish_over_16_point_sweep(netlist):
    for k in range(16):
        phi = 2 * math.pi * k / 16
        result = extract_gate(netlist, phi)
        assert result.max_offdiagonal < 1e-10


def test_diagonal_balance(netlist):
    result = extract_gate(netlist, 1.9)
    mags = np.abs(np.diag(result.operator))
    assert np.max(mags) - np.min(mags) < 1e-9


def test_phase_map_is_identity_bijection(netlist):
    # arg(d33/d00) covers [0, 2pi) and equals phi exactly
    for k in range(16):
        phi = 2 * math.pi * k / 16
        result = extract_gate(netlist, phi)
        err = abs((result.measured_phase - phi + math.pi) % (2 * math.pi) - math.pi)
        assert err < 1e-9


def test_linearity_on_superposition_input(netlist):
    phi = 0.9
    r2 = 1 / math.sqrt(2)
    state = prepare_input(netlist, (r2, r2), (0, 1), ProgramState(phi))
    branch, _ = run_heralded(netlist, state)
    amps = heralded_output_amplitudes(netlist, branch)
    result = extract_gate(netlist, phi)
    expected = (result.operator[:, 1] + result.operator[:, 3]) * r2
    assert np.max(np.abs(amps - expected)) < 1e-10


def test_herald_probability_constant_for_superpositions(netlist):
    # all four basis amplitudes share one magnitude, so any normalized
    # input heralds at 1/48 as well; measured here, not just on the basis
    cases = [
        ((1 / math.sqrt(2), 1 / math.sqrt(2)), (1, 0)),
        ((0.6, 0.8j), (0.8, 0.6)),
        ((1, 0), (1 / math.sqrt(2), -1j / math.sqrt(2))),
    ]
    for target, control in cases:
        state = prepare_input(netlist, target, control, ProgramState(0.4))
        _, prob = run_heralded(netlist, state)
        assert abs(prob - 1 / 48) < 1e-9


def test_hwp1_completion_is_irrelevant(netlist):
    base = extract_gate(netlist, 0.7)
    for chi in (0.3, math.pi / 2, math.pi):
        phase = cmath.exp(1j * chi)
        alt = np.array(
            [[-math.sqrt(3) / 2 * phase, 0.5 * phase], [0.5, math.sqrt(3) / 2]],
            dtype=complex,
        )
        varied = netlist.with_overrides(
            {"HWP1": ElementSpec("HWP1", "waveplate", ("L",), (("matrix", alt),))}
        )
        res = extract_gate(varied, 0.7)
        assert np.max(np.abs(res.operator - base.operator)) < 1e-10
        for key in BASIS_LABELS:
            assert abs(
                res.herald_probability[key] - base.herald_probability[key]
            ) < 1e-10


def test_h_filter_placement_on_control_path_is_forced(moved_f2_netlist):
    """Moving the H filter onto the program arm breaks herald uniformity.

    The control photon's V component pays the 1/sqrt3 splitter bar
    amplitude while its H component does not; only an H filter on the
    control-side output can equalize them, which the uniform-1/48
    criterion requires.  This pins the filter placement choice.
    """
    result = extract_gate(moved_f2_netlist, 0.0)
    probs = list(result.herald_probability.values())
    assert max(probs) / min(probs) > 1.5  # far from uniform


# -- operator utilities ----------------------------------------------------------


def test_measured_phase_undefined_when_00_never_heralds(netlist):
    det = netlist.element("DET")
    unrotated = netlist.with_overrides({"DET": ElementSpec(det.name, det.kind, det.ports)})
    result = extract_gate(unrotated, 0.5)
    assert result.operator[0, 0] == 0
    assert math.isnan(result.measured_phase)


def test_ideal_cphase_values():
    assert np.allclose(ideal_cphase(0.0), np.eye(4))
    assert np.allclose(ideal_cphase(math.pi), np.diag([1, 1, 1, -1]))
    for phi in (0.3, 2.2):
        assert abs(np.linalg.det(ideal_cphase(phi)) - cmath.exp(1j * phi)) < 1e-12


def test_process_fidelity_properties():
    u = ideal_cphase(0.7)
    assert abs(process_fidelity(u, u) - 1.0) < 1e-15
    assert abs(process_fidelity(u, (2.3 - 0.4j) * u) - 1.0) < 1e-15
    f = process_fidelity(np.eye(4), np.diag([1, 1, 1, -1]))
    assert abs(f - 0.25) < 1e-15


def test_process_fidelity_rejects_zero():
    with pytest.raises(ValueError):
        process_fidelity(np.zeros((4, 4)), np.eye(4))


# -- stacked circuit matrices ----------------------------------------------------


def _perturbed_stack(netlist, deltas):
    physics = CouplerPhysics().with_sensitivities("gap", 0.005, -0.004)
    return netlist.with_overrides(
        synthesize_imperfect_elements(netlist, physics, "gap", deltas)
    )


def test_heralded_transfer_on_stack_equals_per_slice(netlist):
    perturbed = _perturbed_stack(netlist, np.array([[-4.0, 0.0], [2.5, 9.0]]))
    stack = circuit_matrix(perturbed)
    assert stack.shape == (2, 2, 12, 12)
    pattern = netlist.herald_pattern()
    inputs = np.zeros((3, 12), dtype=int)
    for row, occupied in enumerate([(0, 4, 6), (1, 5, 7), (1, 3, 7)]):
        inputs[row, occupied] = 1
    outputs, amps = heralded_transfer(stack, pattern, inputs)
    assert amps.shape == (2, 2, 3, len(outputs))
    for i, j in np.ndindex(2, 2):
        single_outputs, single = heralded_transfer(stack[i, j], pattern, inputs)
        assert np.array_equal(single_outputs, outputs)
        assert np.array_equal(single, amps[i, j])


def test_heralded_operators_on_stack_equal_extract_gate(netlist):
    deltas = np.array([-7.0, 0.0, 3.0])
    perturbed = _perturbed_stack(netlist, deltas)
    ops, probs = heralded_operators(perturbed, circuit_matrix(perturbed), 1.3)
    assert ops.shape == (3, 4, 4) and probs.shape == (3, 4)
    for k, delta in enumerate(deltas.tolist()):
        single = extract_gate(_perturbed_stack(netlist, delta), 1.3)
        assert np.array_equal(ops[k], single.operator)
        assert probs[k].tolist() == [single.herald_probability[b] for b in BASIS_LABELS]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_heralded_operators_reject_non_finite_amplitudes(netlist, bad):
    # NaN fails the pruning comparison, so it would otherwise read as zero
    unitary = np.stack([circuit_matrix(netlist)] * 2)
    unitary[1, 0, 0] = bad
    with pytest.raises(ValueError, match="not finite"):
        heralded_operators(netlist, unitary, 0.0)


# -- element parameters ------------------------------------------------------------


@pytest.mark.parametrize("key", ["bogus", "t_hh"])
def test_netlist_rejects_unknown_parameter(key):
    base = default_netlist()
    f1 = base.element("F1").with_params(**{key: 0.5})
    with pytest.raises(NetlistError, match=f"'F1'.*'{key}'"):
        Netlist(base.ports, tuple(f1 if el.name == "F1" else el for el in base.elements),
                base.herald, base.encoding)


def test_every_kind_has_a_parameter_table():
    assert set(ELEMENT_PARAMS) == set(ELEMENT_ARITY)


# -- coupler angles ------------------------------------------------------------------


def test_filter_given_by_angles_alone_equals_attenuating_filter():
    theta_h, theta_v = 1.1, 0.4
    built = build_element(spec("F", "filter", ("a", "b"), theta_h=theta_h, theta_v=theta_v))
    expected = attenuating_filter("a", "b", t_h=math.cos(theta_h), t_v=math.cos(theta_v))
    assert built.modes == expected.modes
    assert np.max(np.abs(built.matrix - expected.matrix)) < 1e-15


COUPLER_ANGLE_CASES = [
    (spec("X", "pbs", ("a", "b")), (0.0, math.pi / 2)),
    (spec("X", "pbs", ("a", "b"), theta_v=1.0), (0.0, 1.0)),
    (spec("X", "ppbs", ("a", "b")), (0.0, math.acos(1 / math.sqrt(3)))),
    (spec("X", "ppbs", ("a", "b"), bar_h=0.6, theta_v=0.3), (math.acos(0.6), 0.3)),
    (spec("X", "filter", ("a", "b"), t_h=0.5, t_v=1.0, theta_h=0.2), (0.2, 0.0)),
    (spec("X", "filter", ("a", "b"), t_h=0.5, t_v=1.0), (math.acos(0.5), 0.0)),
]


@pytest.mark.parametrize("el, angles", COUPLER_ANGLE_CASES)
def test_coupler_angles_take_own_angles_then_bars_then_defaults(el, angles):
    assert coupler_angles(el) == angles


def test_coupler_angles_check_bar_amplitudes():
    with pytest.raises(KeyError, match="t_v"):
        coupler_angles(spec("X", "filter", ("a", "b"), theta_h=0.2))
    with pytest.raises(ValueError, match="outside"):
        coupler_angles(spec("X", "ppbs", ("a", "b"), bar_v=1.5, theta_h=0.0))
    with pytest.raises(ValueError, match="not a coupler"):
        coupler_angles(spec("X", "waveplate", ("a",), preset="hwp1"))
