import cmath
import math

import numpy as np
import pytest

from fockgate.fock import H, V, norm_squared
from fockgate.gate import (
    BASIS_LABELS,
    ElementSpec,
    HeraldTerm,
    Netlist,
    NetlistError,
    PortDecl,
    ProgramState,
    QubitEncoding,
    default_netlist,
    extract_gate,
    heralded_output_amplitudes,
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
