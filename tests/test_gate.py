import cmath
import collections
import itertools
import json
import math
import random
import re
import sys
import threading

import numpy as np
import pytest

from fockgate import acceptance, gate
from fockgate.design import (
    CouplerPhysics,
    perturbed_angles,
    synthesize_imperfect_elements,
    tolerance_sweep,
)
from fockgate.fock import (
    H,
    V,
    HeraldCondition,
    HeraldPattern,
    Mode,
    PureState,
    modes_for_ports,
    norm_squared,
    project_herald,
)
from fockgate.elements import (
    HADAMARD_MATRIX,
    ElementMatrix,
    _check_isometry,
    compose_circuit_matrix,
    coupler_matrices,
    permanents,
    phase_shift,
    wave_plate,
)
from fockgate.io import load_netlist, netlist_from_dict, netlist_to_dict
from fockgate.gate import (
    BASIS_LABELS,
    COUPLER_KINDS,
    ELEMENT_KINDS,
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
    extend_state,
    extract_gate,
    heralded_operators,
    heralded_transfer,
    ideal_cphase,
    prepare_input,
    process_fidelity,
    run_heralded,
    spec,
)
from fockgate.reference import heralded_output_amplitudes, program_state, qubit_state, tensor

A48 = 1 / math.sqrt(48.0)  # heralded amplitude of every basis path
PHIS = (0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2)


@pytest.fixture(scope="module")
def netlist():
    return default_netlist()


# -- netlist structure ---------------------------------------------------------


def test_element_census(netlist):
    census = collections.Counter(el.kind for el in netlist.elements)
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


_PORTS = (PortDecl("a", "io"), PortDecl("b", "io"), PortDecl("c", "io"))
_TERM = HeraldTerm(("a",), (H, V), 1)


def _three_port_netlist(**fields):
    """A netlist on ports a, b, c (target, control, program) with `fields` in place of its own."""
    parts = {
        "ports": _PORTS,
        "elements": (spec("X", "waveplate", ("a",), preset="hadamard"),),
        "herald": (_TERM,),
        "encoding": QubitEncoding("a", "b", "c"),
    }
    return Netlist(**{**parts, **fields})


@pytest.mark.parametrize("field, make", [
    ("port name", lambda: PortDecl(("a",), "io")),
    ("element name", lambda: spec(7, "waveplate", ("a",), preset="hadamard")),
    ("element 'X' port", lambda: spec("X", "waveplate", (b"a",), preset="hadamard")),
    ("herald term port", lambda: HeraldTerm((None,), (H, V), 1)),
    ("encoding control", lambda: QubitEncoding("a", 1.0, "c")),
])
def test_a_part_names_a_name_that_is_not_a_string_when_it_is_made(field, make):
    with pytest.raises(NetlistError, match=f"^{re.escape(field)} .* is not a string$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: QubitEncoding("T", "T", "P"), "encoding port 'T' is given twice"),
    (lambda: spec("X", "pbs", ("a", "a")), "element 'X' port 'a' is given twice"),
    # its photons were counted twice
    (lambda: HeraldTerm(("T", "C", "T"), (H,), 1), "herald term port 'T' is given twice"),
])
def test_a_part_refuses_a_port_named_twice_when_it_is_made(make, message):
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("fields, message", [
    ({"ports": (PortDecl("a", "io"), PortDecl("a", "loss"), PortDecl("c", "io"))},
     "netlist port 'a' is given twice"),
    ({"herald": ()}, "herald pattern is empty"),
    ({"herald": (HeraldTerm(("z",), (H, V), 1),)}, "herald references unknown port 'z'"),
    ({"encoding": QubitEncoding("a", "b", "z")}, "encoding references unknown port 'z'"),
])
def test_a_netlist_checks_that_its_parts_name_declared_ports(fields, message):
    _three_port_netlist()
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        _three_port_netlist(**fields)


NETLIST_FORM_FAULTS = {
    # raised AttributeError: 'str' object has no attribute 'name'
    "port_names": ({"ports": ("a", "b", "c")}, "netlist ports must be a list of PortDecls, got 'a'"),
    "elements_number": ({"elements": 5}, "netlist elements must be a list of ElementSpecs, got 5"),
    # a dict of parts gave its keys: the netlist equalled the one made from them
    "ports_dict": ({"ports": dict.fromkeys(_PORTS, 0)},
                   f"netlist ports must be a list of PortDecls, got {dict.fromkeys(_PORTS, 0)!r}"),
    "herald_set": ({"herald": {_TERM}}, f"netlist herald must be a list of HeraldTerms, got {({_TERM})!r}"),
    "herald_string": ({"herald": "a"}, "netlist herald must be a list of HeraldTerms, got 'a'"),
    "encoding_names": ({"encoding": ("a", "b", "c")},
                       "netlist encoding must be a QubitEncoding, got ('a', 'b', 'c')"),
}


@pytest.mark.parametrize("fields, message", NETLIST_FORM_FAULTS.values(), ids=NETLIST_FORM_FAULTS.keys())
def test_a_netlist_names_a_field_that_does_not_hold_its_part_type(fields, message):
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        _three_port_netlist(**fields)


def test_netlist_rejects_duplicate_elements():
    with pytest.raises(NetlistError, match="^netlist element name 'X' is given twice$"):
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
    assert all(nl.column(m.port, m.pol) == k for k, m in enumerate(nl.modes))
    constraints = [
        ([Mode(p, pol) for p in term.ports for pol in term.pols], term.count)
        for term in nl.herald
    ]
    assert nl.herald_pattern() == HeraldPattern.on_modes(nl.modes, constraints)


def test_reordered_ports_reorder_the_columns():
    assert _reordered_netlist().column("F2_LOSS", H) == 0


def test_a_column_needs_a_declared_port_and_a_polarization(netlist):
    with pytest.raises(KeyError):
        netlist.column("Z", H)
    with pytest.raises(ValueError):  # a string is no polarization: it is not placed as H
        netlist.column("T", "V")


def test_with_overrides_keeps_modes_and_columns(netlist):
    tuned = netlist.with_overrides({"F1": netlist.element("F1").with_params(t_h=0.4)})
    assert tuned.modes == netlist.modes
    assert [tuned.column(m.port, m.pol) for m in tuned.modes] == list(range(len(netlist.modes)))


def test_extend_state_refuses_a_mode_on_an_undeclared_port(netlist):
    state = PureState((Mode("Z", H),), {(1,): 1.0})
    with pytest.raises(KeyError, match="mode Z:H is not a mode of the netlist"):
        extend_state(state, netlist)


def test_netlists_compare_and_hash_by_their_fields():
    a, b = default_netlist(), default_netlist()
    assert a == b and hash(a) == hash(b)


def test_a_netlist_made_from_lists_is_the_netlist_and_keeps_no_list():
    nl = default_netlist()
    ports, elements, herald = list(nl.ports), list(nl.elements), list(nl.herald)
    made = Netlist(ports, elements, herald, nl.encoding)
    assert made == nl and hash(made) == hash(nl)
    assert netlist_from_dict(netlist_to_dict(made)) == made
    kept = extract_gate(made, 1.0)
    # the kept gate went stale: p00 stayed 0.0208 where a fresh netlist gave 0.00083,
    # and an element on an undeclared port got past `validate`
    elements[1] = nl.element("F1").with_params(t_h=0.1)
    elements.append(spec("X", "pbs", ("T", "NOWHERE")))
    ports.pop()
    herald.pop()
    assert (made.ports, made.elements, made.herald) == (nl.ports, nl.elements, nl.herald)
    made.validate()
    assert _gate_bits(extract_gate(made, 1.0)) == _gate_bits(kept) == _gate_bits(extract_gate(nl, 1.0))


def test_a_spec_made_from_unsorted_pairs_is_the_spec_made_by_spec():
    ports, pairs = ["T", "F1_LOSS"], [("t_v", 0.5), ("t_h", 0.5)]
    made = ElementSpec("F1", "filter", ports, pairs)
    nominal = default_netlist().element("F1")
    assert made == spec("F1", "filter", ("T", "F1_LOSS"), t_h=0.5, t_v=0.5) == nominal
    assert hash(made) == hash(nominal) and made.params == (("t_h", 0.5), ("t_v", 0.5))
    ports.reverse()
    pairs.append(("theta_h", 0.3))
    assert made == nominal
    netlist = default_netlist().with_overrides({"F1": made})
    assert netlist_from_dict(netlist_to_dict(netlist)) == netlist == default_netlist()


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


@pytest.mark.parametrize("make", [default_netlist, _reordered_netlist], ids=["default", "reordered"])
def test_input_occupation_puts_one_photon_on_each_named_port(make):
    nl = make()
    enc = nl.encoding
    modes = list(nl.modes)
    for pols in itertools.product((None, H, V), repeat=3):
        expected = [0] * len(modes)
        for port, pol in zip((enc.target, enc.control, enc.program), pols):
            if pol is not None:
                expected[modes.index(Mode(port, pol))] = 1
        assert nl.input_occupation(*pols) == tuple(expected)


def _tensor_product_input(netlist, target, control, phi):
    """The input built factor by factor on each port's own modes, then laid out."""
    enc = netlist.encoding
    product = tensor(
        tensor(
            qubit_state(modes_for_ports([enc.target]), enc.target, *target),
            qubit_state(modes_for_ports([enc.control]), enc.control, *control),
        ),
        program_state(modes_for_ports([enc.program]), enc.program, phi),
    )
    return extend_state(product, netlist)


def _bits(state):
    return [(vec, amp.real.hex(), amp.imag.hex()) for vec, amp in state.items()]


@pytest.mark.parametrize("make", [default_netlist, _reordered_netlist], ids=["default", "reordered"])
def test_prepare_input_equals_tensor_product_on_random_and_tiny_amplitudes(make):
    nl = make()
    rng = random.Random(23)

    def qubit():
        a, b = complex(rng.gauss(0, 1), rng.gauss(0, 1)), complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return a / norm, b / norm

    # amplitudes PureState drops (below 1e-14), keeps (1e-14) and products it drops
    edge = [(1.0, 5e-15j), (5e-15, 1.0), (1.0, 1e-14), (math.sqrt(1 - 1e-16), 1e-8)]
    pairs = [(qubit(), qubit()) for _ in range(40)] + [(q, r) for q in edge for r in edge]
    for target, control in pairs:
        phi = rng.uniform(-math.pi, 3 * math.pi)
        got = prepare_input(nl, target, control, ProgramState(phi))
        want = _tensor_product_input(nl, target, control, phi)
        assert got.modes == want.modes == nl.modes
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("target, control, phi, message", [
    ((1.0, 1.0), (1, 0), 0.0, "not normalized"),
    ((1, 0), (math.nan, 1.0), 0.0, "must be finite"),
    ((1, 0), (0, 1), math.nan, "must be finite"),
])
def test_prepare_input_keeps_the_qubit_state_messages(netlist, target, control, phi, message):
    with pytest.raises(ValueError, match=message) as caught:
        prepare_input(netlist, target, control, ProgramState(phi))
    enc = netlist.encoding
    with pytest.raises(ValueError) as reference:
        for port, (a, b) in ((enc.target, target), (enc.control, control)):
            qubit_state(netlist.modes, port, a, b)
        program_state(netlist.modes, enc.program, phi)
    assert str(caught.value) == str(reference.value)


@pytest.mark.parametrize("make", [default_netlist, _reordered_netlist], ids=["default", "reordered"])
@pytest.mark.parametrize("seed", range(4))
def test_prepare_input_equals_tensor_product_bit_for_bit(make, seed):
    nl = make()
    rng = random.Random(seed)
    qubits = [(1.0, 0.0), (0.0, 1.0)]
    for _ in range(2):
        theta, chi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        qubits.append((math.cos(theta), cmath.rect(math.sin(theta), chi)))
    for target, control in itertools.product(qubits, repeat=2):
        phi = rng.uniform(-math.pi, 2 * math.pi)
        got = prepare_input(nl, target, control, ProgramState(phi))
        want = _tensor_product_input(nl, target, control, phi)
        assert got.modes == want.modes == nl.modes
        assert _bits(got) == _bits(want)


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
        alt = [[-math.sqrt(3) / 2 * phase, 0.5 * phase], [0.5, math.sqrt(3) / 2]]
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


def _random_operators(rng, count):
    ops = rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4))
    ops[::3] *= rng.random((len(ops[::3]), 4, 4)) > 0.5  # some sparse ones
    ops[1] = A48 * np.diag([1, 1, 1, -1])
    return ops


def _scalar_fidelity(a, b):
    """The fidelity formula evaluated on one pair with Python scalars."""
    na = float(np.real(np.trace(a.conj().T @ a)))
    nb = float(np.real(np.trace(b.conj().T @ b)))
    return float(abs(np.trace(a.conj().T @ b)) ** 2 / (na * nb))


def test_process_fidelity_of_a_stack_equals_per_matrix_calls_bitwise():
    rng = np.random.default_rng(17)
    ops = _random_operators(rng, 60)
    ideals = np.stack([ideal_cphase(phi) for phi in rng.uniform(0, 2 * math.pi, 60)])
    stacked = process_fidelity(ops, ideals[7])
    paired = process_fidelity(ops.reshape(6, 10, 4, 4), ideals.reshape(6, 10, 4, 4))
    assert stacked.shape == (60,) and paired.shape == (6, 10)
    for k in range(60):
        single = process_fidelity(ops[k], ideals[7])
        assert type(single) is float
        assert stacked[k] == single == _scalar_fidelity(ops[k], ideals[7])
        assert paired.ravel()[k] == process_fidelity(ops[k], ideals[k]) == _scalar_fidelity(
            ops[k], ideals[k]
        )


def test_process_fidelity_stack_with_one_zero_operator_raises():
    ops = _random_operators(np.random.default_rng(2), 5)
    ops[3] = 0.0
    with pytest.raises(ValueError, match="undefined for a zero operator"):
        process_fidelity(ops, np.eye(4))
    with pytest.raises(ValueError, match="undefined for a zero operator"):
        process_fidelity(np.eye(4), ops)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_process_fidelity_rejects_non_finite_operators(bad):
    op = np.eye(4, dtype=complex)
    op[2, 1] = bad
    for a, b in ((op, np.eye(4)), (np.eye(4), op), (np.stack([np.eye(4), op]), np.eye(4))):
        with pytest.raises(ValueError, match="non-finite operator"):
            process_fidelity(a, b)


@pytest.mark.parametrize("shape_a, shape_b", [((3, 3), (4, 4)), ((4, 3), (4, 3)), ((4,), (4,)),
                                              ((2, 4, 4), (3, 3))])
def test_process_fidelity_rejects_operators_of_other_shapes(shape_a, shape_b):
    with pytest.raises(ValueError, match="square operators of one size"):
        process_fidelity(np.ones(shape_a), np.ones(shape_b))


@pytest.mark.parametrize("seed", range(5))
def test_fidelity_core_equals_process_fidelity(seed):
    rng = np.random.default_rng(seed)
    ops = _random_operators(rng, 24)
    ideals = np.stack([ideal_cphase(phi) for phi in rng.uniform(0, 2 * math.pi, 24)])
    stacked = gate._fidelity(ops, ideals)
    assert np.array_equal(stacked, process_fidelity(ops, ideals))
    assert np.array_equal(gate._fidelity(ops, ideals[3]), process_fidelity(ops, ideals[3]))
    for k in range(24):
        single = gate._fidelity(ops[k], ideals[k])
        assert type(single) is float
        assert single == process_fidelity(ops[k], ideals[k]) == stacked[k]


# 2^290 lies below 2^300: a scale exponent of 300 would use it as given, and its norms would overflow
@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300, 2.0**290, 1e-170, 1e-200, 1e-300, 5e-324])
def test_process_fidelity_does_not_depend_on_an_operators_scale(scale):
    assert process_fidelity(np.eye(4) * scale, np.eye(4)) == 1.0
    assert process_fidelity(np.eye(4), np.eye(4) * scale) == 1.0
    assert process_fidelity(np.eye(4) * scale, np.eye(4) * scale) == 1.0


def test_process_fidelity_of_a_stack_mixing_scales():
    ops = _random_operators(np.random.default_rng(11), 6)
    # a power of two scales every norm exactly, so each fidelity is the same bit for bit
    powers = np.array([0, 700, -700, 300, -900, 150])
    mixed = ops * np.ldexp(1.0, powers)[:, None, None]
    ideal = ideal_cphase(2.1)
    want = process_fidelity(ops, ideal)
    assert np.array_equal(process_fidelity(mixed, ideal), want)
    assert np.array_equal(process_fidelity(ideal, mixed), process_fidelity(ideal, ops))
    with pytest.raises(ValueError, match="undefined for a zero operator"):
        process_fidelity(np.concatenate([mixed, np.zeros((1, 4, 4))]), ideal)


@pytest.mark.parametrize("shape", [(6000, 1), (1500, 13)])
def test_squared_norms_sum_as_norm_squared_bit_for_bit(shape):
    # single terms pin Python's square, 13 terms its summation order
    rng = np.random.default_rng(4)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    z *= 10.0 ** rng.uniform(-6, 1, size=shape)
    z[rng.random(shape) < 0.2] = 0.0
    modes = modes_for_ports([f"p{k}" for k in range(7)])
    outputs = [tuple(int(k == j) for k in range(14)) for j in range(shape[1])][::-1]  # ascending
    got = gate._squared_norms(z)
    assert got.shape == shape[:1]
    for row, value in zip(z.tolist(), got.tolist()):
        assert value == norm_squared(PureState(modes, dict(zip(outputs, row))))
    assert gate._squared_norms(np.zeros((3, 0), dtype=complex)).tolist() == [0.0] * 3


# -- stacked circuit matrices ----------------------------------------------------


GAP = CouplerPhysics().with_sensitivities("gap", 0.005, -0.004)


def _gap_angles(netlist, deltas):
    """The perturbed couplers' names and their angles (points, couplers, 2) at gap `deltas`."""
    return perturbed_angles(netlist, GAP, "gap", np.array(deltas))


def _gap_netlist(netlist, delta):
    return netlist.with_overrides(synthesize_imperfect_elements(netlist, GAP, "gap", delta))


def test_heralded_transfer_on_stack_equals_per_slice(netlist):
    deltas = [-4.0, 0.0, 2.5, 9.0]
    names, angles = _gap_angles(netlist, deltas)
    slot = {step.spec.name: k for k, step in enumerate(netlist.steps)}
    stacks = {slot[name]: coupler_matrices(np.cos(angles[:, c]), np.sin(angles[:, c]),
                                           netlist.element(name).kind == "pbs")
              for c, name in enumerate(names)}
    stack = netlist.compose(stacks)
    for k, delta in enumerate(deltas):
        assert np.array_equal(stack[k], circuit_matrix(_gap_netlist(netlist, delta)))
    stack = stack.reshape(2, 2, 12, 12)
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
    deltas = [-7.0, 0.0, 3.0]
    ops, probs = gate.coupler_operators(netlist, *_gap_angles(netlist, deltas), 1.3)
    assert ops.shape == (3, 4, 4) and probs.shape == (3, 4)
    for k, delta in enumerate(deltas):
        single = extract_gate(_gap_netlist(netlist, delta), 1.3)
        assert np.array_equal(ops[k], single.operator)
        assert probs[k].tolist() == [single.herald_probability[b] for b in BASIS_LABELS]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_heralded_operators_reject_non_finite_amplitudes(monkeypatch, bad):
    # NaN fails the pruning comparison, so it would otherwise read as zero
    def spoiled(stack):
        perms = permanents(stack)
        # a stack spoils its last point only, beside finite ones
        perms[(-1,) * (perms.ndim - 2) + (0, 0)] = bad
        return perms

    monkeypatch.setattr(gate, "permanents", spoiled)
    nl = default_netlist()
    for call in (
        lambda: extract_gate(nl, 0.0),
        lambda: gate.coupler_operators(nl, *_gap_angles(nl, [0.0, 0.0]), 0.0),
        lambda: tolerance_sweep(nl, GAP, "gap"),
    ):
        with pytest.raises(ValueError, match="not finite"):
            call()


# -- a netlist realized once ----------------------------------------------------------


def _product_inputs(netlist, count, seed):
    rng = random.Random(seed)

    def qubit():
        a, b = complex(rng.gauss(0, 1), rng.gauss(0, 1)), complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return a / norm, b / norm

    return [
        prepare_input(netlist, qubit(), qubit(), ProgramState(rng.uniform(0, 2 * math.pi)))
        for _ in range(count)
    ]


def _gate_bits(result):
    return (result.operator.tobytes(), result.herald_probability, result.fidelity)


def test_a_netlist_builds_each_element_once(monkeypatch):
    built, batches = [], []

    def counting(el):
        built.append(el.name)
        return build_element(el)

    def counting_permanents(stack):
        batches.append(stack.shape)
        return permanents(stack)

    monkeypatch.setattr(gate, "build_element", counting)
    monkeypatch.setattr(gate, "permanents", counting_permanents)
    nl = default_netlist()
    states = _product_inputs(nl, 100, seed=3)
    for k, state in enumerate(states):
        extract_gate(nl, 0.05 * k)
        run_heralded(nl, state)
    assert sorted(built) == sorted(el.name for el in nl.elements)
    # the first extraction computes all 8 basis amplitudes; every product input reuses them
    assert batches == [(8, 4, 3, 3)]


def test_circuit_matrix_is_kept_read_only():
    nl = default_netlist()
    unitary = circuit_matrix(nl)
    assert circuit_matrix(nl) is unitary
    with pytest.raises(ValueError, match="read-only"):
        unitary[0, 0] = 0.0
    elements = [step.element for step in nl.steps]
    columns = [np.array([list(nl.modes).index(mode) for mode in m.modes]) for m in elements]
    assert np.array_equal(
        unitary, compose_circuit_matrix([m.matrix for m in elements], columns, len(nl.modes))
    )


def test_steps_are_realized_once_read_only_and_compose_the_circuit():
    nl = default_netlist()
    steps = nl.steps
    assert nl.steps is steps
    assert [step.spec.name for step in steps] == [el.name for el in nl.elements]
    for step in steps:
        built = build_element(step.spec)
        columns = [list(nl.modes).index(mode) for mode in modes_for_ports(step.spec.ports)]
        assert np.arange(len(nl.modes))[step.at].tolist() == columns
        assert step.element.modes == built.modes
        assert np.array_equal(step.element.matrix, built.matrix)
        with pytest.raises(ValueError, match="read-only"):
            step.element.matrix[0, 0] = 0.0
    assert np.array_equal(nl.compose(), circuit_matrix(nl))


def test_coupler_operators_equal_heralded_operators_per_point_bit_for_bit():
    nl = default_netlist()
    names = ("PBS1", "PPBS", "F2")
    rng = np.random.default_rng(5)
    base = np.array([coupler_angles(nl.element(name)) for name in names])
    thetas = base + rng.normal(scale=0.05, size=(4, len(names), 2))
    operators, probs = gate.coupler_operators(nl, names, thetas, 1.3)
    assert operators.shape == (4, 4, 4) and probs.shape == (4, 4)
    for point, angles in enumerate(thetas.tolist()):
        single = nl.with_overrides({
            name: nl.element(name).with_params(theta_h=th_h, theta_v=th_v)
            for name, (th_h, th_v) in zip(names, angles)
        })
        op, pr = heralded_operators(single, 1.3)
        assert operators[point].tobytes() == op.tobytes()
        assert probs[point].tobytes() == pr.tobytes()


def test_coupler_operators_check_every_coupler_block():
    nl = default_netlist()
    thetas = np.zeros((3, 2, 2))
    thetas[2, 1, 0] = math.nan  # one block of the last point
    with pytest.raises(NetlistError, match="coupler is not an isometry: deviation nan"):
        gate.coupler_operators(nl, ("F1", "F2"), thetas, 0.0)


@pytest.mark.parametrize("name", ["NOPE", "HWP1", "DET"])
def test_coupler_operators_name_a_step_that_is_not_a_coupler(netlist, name):
    names, angles = _gap_angles(netlist, [0.0, 1.0])
    with pytest.raises(ValueError, match=f"^{name!r} is not a coupler step of the netlist$"):
        gate.coupler_operators(netlist, names[:-1] + (name,), angles, 0.4)


def test_coupler_operators_refuse_a_coupler_named_twice(netlist):
    # else the later angles would silently take the place of the earlier ones
    names, angles = _gap_angles(netlist, [0.0, 1.0])
    with pytest.raises(ValueError, match="^coupler 'PBS1' is given twice$"):
        gate.coupler_operators(netlist, names[:-1] + ("PBS1",), angles, 0.4)


@pytest.mark.parametrize("shape", [(2, 5, 2), (6, 2), (2, 6, 3), (1, 2, 6, 2)])
def test_coupler_operators_name_angles_of_the_wrong_shape(netlist, shape):
    names, _ = _gap_angles(netlist, [0.0])
    assert len(names) == 6
    with pytest.raises(ValueError, match=rf"angles of shape \({', '.join(map(str, shape))}\) "
                                         r"are not \(points, 6, 2\)"):
        gate.coupler_operators(netlist, names, np.zeros(shape), 0.4)


@pytest.mark.parametrize("points", [0, 1, 3])
def test_coupler_operators_without_couplers_give_one_operator_per_point(netlist, points):
    operators, probs = gate.coupler_operators(netlist, (), np.zeros((points, 0, 2)), 0.9)
    assert operators.shape == (points, 4, 4) and probs.shape == (points, 4)
    want_op, want_probs = heralded_operators(netlist, 0.9)
    for k in range(points):
        assert np.array_equal(operators[k], want_op)
        assert np.array_equal(probs[k], want_probs)


def test_an_empty_batch_gives_empty_operators(netlist):
    names, angles = _gap_angles(netlist, [])
    assert angles.shape == (0, 6, 2)
    operators, probs = gate.coupler_operators(netlist, names, angles, 0.4)
    assert operators.shape == (0, 4, 4) and probs.shape == (0, 4)
    assert process_fidelity(operators, ideal_cphase(0.4)).shape == (0,)


def test_heralded_transfer_needs_an_input(netlist):
    with pytest.raises(ValueError, match="at least one input"):
        heralded_transfer(circuit_matrix(netlist), netlist.herald_pattern(), np.zeros((0, 12), int))


def test_heralded_transfer_needs_inputs_of_one_photon_number(netlist):
    inputs = np.zeros((2, 12), int)
    inputs[0, 0], inputs[1, :2] = 1, 1
    with pytest.raises(ValueError, match="^heralded transfer inputs must hold the same photon number$"):
        heralded_transfer(circuit_matrix(netlist), netlist.herald_pattern(), inputs)


@pytest.mark.parametrize("index, error, message", [
    (-1, ValueError, "herald mode index -1 is negative"),
    (4, KeyError, "herald references mode index 4 outside state"),
])
@pytest.mark.parametrize("engine", ["project_herald", "heralded_transfer"])
def test_both_engines_refuse_a_herald_mode_index_outside_the_state(index, error, message, engine):
    # a negative index would count a mode from the end; one past the modes
    # would count nothing: both engines refuse both, with one exception class
    vec = (1, 0, 0, 0)
    with pytest.raises(error, match=message):
        pattern = HeraldPattern((HeraldCondition((index,), 1),))
        if engine == "project_herald":
            project_herald(PureState(modes_for_ports(["a", "b"]), {vec: 1.0}), pattern)
        else:
            heralded_transfer(np.eye(4, dtype=complex), pattern, [vec])


def _verdict(check):
    try:
        check()
    except ValueError as exc:  # NetlistError is a ValueError
        return exc.args[0]
    return None


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", ["random", "large", "nan", "inf"])
def test_coupler_operators_accept_the_blocks_the_full_check_accepts(kind):
    nl = default_netlist()
    names = tuple(el.name for el in nl.elements if el.kind in COUPLER_KINDS)
    reflect = np.array([nl.element(name).kind == "pbs" for name in names])
    assert reflect.any() and not reflect.all()  # rotation and reflection forms mixed
    message = "coupler is not an isometry: deviation {:.3g}"
    rng = np.random.default_rng(11)
    for _ in range(10):
        thetas = rng.uniform(-10.0, 10.0, size=(5, len(names), 2))
        if kind == "large":
            thetas *= 10.0 ** rng.integers(3, 309, size=thetas.shape) / 10.0
        elif kind in ("nan", "inf"):
            thetas[tuple(rng.integers(0, n) for n in thetas.shape)] = getattr(math, kind)
        blocks = coupler_matrices(np.cos(thetas), np.sin(thetas), reflect)
        full = _verdict(lambda: _check_isometry(blocks, message))
        got = _verdict(lambda: gate.coupler_operators(nl, names, thetas, 0.4))
        assert got == full == (None if kind in ("random", "large") else message.format(math.nan))


def _with_herald(herald):
    nl = default_netlist()
    return Netlist(nl.ports, nl.elements, herald, nl.encoding)


@pytest.mark.parametrize("program_terms", [(HeraldTerm(("P",), (H, V), 1),), ()], ids=["both_pols", "none"])
def test_the_detector_mode_is_v_without_a_one_polarization_program_term(program_terms):
    # the readout then reads the program port's V mode, as on the shipped netlist
    shipped = default_netlist()
    nl = _with_herald(shipped.herald[:2] + program_terms)
    assert nl.detector_pol is V
    assert extract_gate(nl, 1.0).operator.tobytes() == extract_gate(shipped, 1.0).operator.tobytes()


READOUT_HERALDS = {
    "shipped": default_netlist().herald,
    # 3 photons anywhere on T, C and P: many outputs, most read as no logical output
    "wide": (HeraldTerm(("T", "C", "P"), (H, V), 3),),
    # 4 photons on T: no three-photon output is accepted
    "none": (HeraldTerm(("T",), (H, V), 4),),
}


@pytest.mark.parametrize("herald", sorted(READOUT_HERALDS) + ["summing"])
def test_folded_readout_equals_the_per_matrix_product_bit_for_bit(herald):
    rng = np.random.default_rng(3)
    if herald == "summing":  # a 0/1 readout that adds several outputs into each logical output
        readout = np.zeros((40, 4))
        readout[np.arange(40), rng.integers(0, 4, size=40)] = 1.0
    else:
        readout = _with_herald(READOUT_HERALDS[herald]).readout
    outputs = readout.shape[0]
    assert (outputs == 0) == (herald == "none")
    for shape in [(), (1,), (21,), (3, 5)]:
        size = shape + (4, outputs)
        columns = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.integers(
            -9, 3, size=size
        )
        columns[rng.random(size) < 0.2] = 0.0
        folded = gate._read_logical(columns, readout)
        per_matrix = np.ascontiguousarray((columns @ readout).swapaxes(-1, -2))
        assert folded.shape == shape + (4, 4) and folded.flags.c_contiguous
        assert folded.tobytes() == per_matrix.tobytes()


def test_coupler_operators_reject_a_herald_with_no_accepted_output():
    nl = _with_herald(READOUT_HERALDS["none"])
    thetas = np.array([[coupler_angles(nl.element("PPBS"))]] * 2)
    with pytest.raises(NetlistError, match="zero operator"):
        gate.coupler_operators(nl, ("PPBS",), thetas, 0.4)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_extract_gate_names_a_non_finite_phase(netlist, phi):
    with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
        extract_gate(netlist, phi)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_heralded_operators_name_a_non_finite_phase(netlist, phi):
    with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
        heralded_operators(netlist, phi)
    thetas = np.array([[coupler_angles(netlist.element("F1"))]])
    with pytest.raises(ValueError, match="phi must be finite"):
        gate.coupler_operators(netlist, ("F1",), thetas, phi)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_prepare_input_names_a_non_finite_phase(netlist, phi):
    with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
        prepare_input(netlist, (1.0, 0.0), (0.0, 1.0), ProgramState(phi))
    with pytest.raises(ValueError, match="phi must be finite"):
        ideal_cphase(phi)


@pytest.mark.parametrize("order", ["basis", "sorted", "shuffled"])
def test_cached_rows_equal_a_fresh_transfer_bit_for_bit(order):
    nl = default_netlist()
    basis = nl.basis_inputs
    inputs = {"basis": list(basis), "sorted": sorted(basis),
              "shuffled": random.Random(4).sample(basis, len(basis))}[order]
    kept = nl._basis_amplitudes
    with pytest.raises(ValueError, match="read-only"):
        kept[0, 0] = 0.0
    fresh_outputs, fresh = heralded_transfer(circuit_matrix(nl), nl.herald_pattern(), inputs)
    assert np.array_equal(nl.basis_gather[2], fresh_outputs)
    assert kept[[basis.index(vec) for vec in inputs]].tobytes() == fresh.tobytes()
    # a state of basis inputs takes its rows from the kept array
    state = PureState(nl.modes, {vec: complex(k + 1, -k) / 20 for k, vec in enumerate(inputs)})
    assert _bits(run_heralded(nl, state)[0]) == _bits(_fresh_branch(nl, state))


def test_extract_gate_after_run_heralded_equals_a_fresh_extraction():
    nl = default_netlist()
    for state in _product_inputs(nl, 3, seed=5):
        run_heralded(nl, state)  # computes the kept basis amplitudes first
    for phi in PHIS:
        op, probs = heralded_operators(nl, phi)
        result = extract_gate(nl, phi)
        assert result.operator.tobytes() == op.tobytes()
        assert [result.herald_probability[b] for b in BASIS_LABELS] == probs.tolist()


def _fresh_branch(netlist, state):
    """run_heralded's contraction with a fresh transfer per photon number."""
    groups = {}
    for vec, amp in state.items():
        groups.setdefault(sum(vec), []).append((vec, amp))
    terms = {}
    for group in groups.values():
        vecs, amps = zip(*group)
        outputs, transfer = heralded_transfer(circuit_matrix(netlist), netlist.herald_pattern(), vecs)
        terms.update(zip(map(tuple, outputs.tolist()), (np.array(amps) @ transfer).tolist()))
    return PureState(netlist.modes, terms)


def test_run_heralded_mixed_photon_numbers_match_a_fresh_transfer():
    nl = default_netlist()
    rng = random.Random(11)
    terms = {}
    for n in (2, 3, 3, 3, 2):
        vec = [0] * len(nl.modes)
        for _ in range(n):
            vec[rng.randrange(len(nl.modes))] += 1
        terms[tuple(vec)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    terms[nl.input_occupation(H, V, V)] = 0.5
    terms[nl.input_occupation(V, V, H)] = -0.25j
    state = PureState(nl.modes, terms)
    expected = _bits(_fresh_branch(nl, state))
    for _ in range(2):
        branch, prob = run_heralded(nl, state)
        assert _bits(branch) == expected
        assert prob == norm_squared(branch)
    assert expected  # the 3-photon terms herald


def test_run_heralded_lays_out_only_foreign_states(monkeypatch):
    calls = []

    def counting(state, netlist):
        calls.append(state.modes)
        return extend_state(state, netlist)

    monkeypatch.setattr(gate, "extend_state", counting)
    nl = default_netlist()
    state = prepare_input(nl, (1, 0), (0, 1), ProgramState(0.4))
    run_heralded(nl, state)
    assert calls == []
    foreign = PureState(nl.modes[::-1], {vec[::-1]: amp for vec, amp in state.items()})
    branch, _ = run_heralded(nl, foreign)
    assert calls == [foreign.modes]
    assert _bits(branch) == _bits(run_heralded(nl, state)[0])


def test_overridden_netlist_has_its_own_circuit():
    parent = default_netlist()
    before = _gate_bits(extract_gate(parent, 1.1))
    parent_circuit = circuit_matrix(parent)
    tuned = parent.with_overrides({"PBS3": parent.element("PBS3").with_params(theta_h=0.2)})
    assert not np.allclose(circuit_matrix(tuned), parent_circuit)
    assert _gate_bits(extract_gate(tuned, 1.1)) != before
    assert circuit_matrix(parent) is parent_circuit
    assert _gate_bits(extract_gate(parent, 1.1)) == before
    # the perturbed copy derives its own structure, equal to its parent's bit for bit
    _assert_own_equal_structure(tuned, parent)
    assert tuned._basis_amplitudes is not parent._basis_amplitudes


def _assert_own_equal_structure(copy, parent):
    assert copy.modes == parent.modes and copy._port_index == parent._port_index
    for own, parents in zip(copy.basis_gather + (copy.readout,), parent.basis_gather + (parent.readout,)):
        assert own is not parents
        assert own.dtype == parents.dtype and own.shape == parents.shape
        assert own.tobytes() == parents.tobytes()


def test_a_netlist_derives_its_own_read_only_structure():
    a = default_netlist()
    assert a.basis_inputs == tuple(
        a.input_occupation(*pols) for pols in itertools.product((H, V), repeat=3)
    )
    assert a.basis_inputs is a.basis_inputs and a.readout is a.readout
    _assert_own_equal_structure(default_netlist(), a)
    assert _reordered_netlist().modes != a.modes
    for array in a.basis_gather + (a.readout,):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 2


def test_a_netlist_pickles_and_copies():
    import copy
    import pickle

    nl = default_netlist()
    before = _gate_bits(extract_gate(nl, 0.9))
    # a netlist that has derived its circuit pickles as its four fields alone
    assert pickle.dumps(nl) == pickle.dumps(default_netlist())
    for clone in (pickle.loads(pickle.dumps(nl)), copy.deepcopy(nl), copy.copy(nl)):
        # its fields and the port index its validation reads, nothing of `nl`'s
        assert vars(clone).keys() == {"ports", "elements", "herald", "encoding", "_port_index"}
        assert clone == nl and clone.modes == nl.modes and clone._port_index == nl._port_index
        assert _gate_bits(extract_gate(clone, 0.9)) == before
        # what the clone derives is its own and read-only
        assert circuit_matrix(clone) is not circuit_matrix(nl)
        kept = [circuit_matrix(clone), clone._basis_amplitudes, clone.readout,
                *clone.basis_gather, clone._row_block[0], clone._row_block[1][0],
                *(step.element.matrix for step in clone.steps),
                *(step.at for step in clone.steps if isinstance(step.at, np.ndarray))]
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 5.0


def test_rewired_element_composes_on_its_new_columns():
    base = default_netlist()
    rewired = base.with_overrides({
        "PBS3": spec("PBS3", "pbs", ("P", "L")),  # ports swapped
        "HWP1": spec("HWP1", "waveplate", ("C",), preset="hwp1"),  # another port
    })
    _assert_own_equal_structure(rewired, base)
    pbs3 = next(step for step in rewired.steps if step.spec.name == "PBS3")
    assert pbs3.at.tolist() == [6, 7, 2, 3]
    elements = [step.element for step in rewired.steps]
    independent = compose_circuit_matrix(
        [m.matrix for m in elements],
        [np.array([list(rewired.modes).index(mode) for mode in m.modes]) for m in elements],
        len(rewired.modes),
    )
    assert np.array_equal(circuit_matrix(rewired), independent)
    assert not np.allclose(circuit_matrix(rewired), circuit_matrix(base))


def test_extract_gate_from_threads_equals_serial():
    phis = [0.1 * k for k in range(40)]
    serial_nl = default_netlist()
    expected = [_gate_bits(extract_gate(serial_nl, phi)) for phi in phis]
    shared = default_netlist()
    results, errors = {}, []
    start = threading.Barrier(4)

    def work(worker):
        try:
            start.wait(timeout=10)
            results[worker] = [_gate_bits(extract_gate(shared, phi)) for phi in phis]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [results[w] for w in range(4)] == [expected] * 4


def test_oracle_check_reads_the_realized_steps(monkeypatch):
    nl = default_netlist()
    circuit_matrix(nl)  # the permanent side composes the steps and keeps its circuit
    calls = []
    original = gate.build_element

    def counting(el):
        calls.append(el)
        return original(el)

    monkeypatch.setattr(gate, "build_element", counting)
    name, ok, _ = acceptance.check_oracle_equivalence(nl)
    assert ok
    assert calls == []  # the 27 Fock runs apply the steps the circuit was composed from
    assert "_basis_amplitudes" not in vars(nl)  # nor read the kept amplitudes


# -- element parameters ------------------------------------------------------------


def test_list_parameters_are_frozen_copies():
    plate = [[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]]
    el = ElementSpec("HWP1", "waveplate", ("L",), (("matrix", plate),))
    assert el.param_dict["matrix"] == tuple(map(tuple, plate))
    nl = default_netlist().with_overrides({"HWP1": el})
    unitary = circuit_matrix(nl).copy()
    plate[0][0] = 5.0
    assert el.param_dict["matrix"][0][0] == 1 / math.sqrt(2)
    rebuilt = default_netlist().with_overrides({
        "HWP1": ElementSpec("HWP1", "waveplate", ("L",), (("matrix", el.param_dict["matrix"]),)),
    })
    assert np.array_equal(circuit_matrix(nl), unitary)
    assert np.array_equal(circuit_matrix(rebuilt), unitary)


def test_an_array_parameter_is_refused_naming_the_element_and_parameter():
    # an element is one device, so no netlist, circuit or netlist file holds a stack
    rows = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for make, message in [
        (lambda: spec("PBS3", "pbs", ("L", "P"), theta_h=np.array([0.1, 0.2])),
         r"'PBS3' parameter 'theta_h' holds an array of shape \(2,\)"),
        (lambda: default_netlist().element("PBS1").with_params(theta_v=np.array(1.5)),
         r"'PBS1' parameter 'theta_v' holds an array of shape \(\)"),
        (lambda: ElementSpec("HWP1", "waveplate", ("L",), (("matrix", rows),)),
         r"'HWP1' parameter 'matrix' holds an array of shape \(2,\)"),
        (lambda: ElementSpec("HWP1", "waveplate", ("L",), (("matrix", np.eye(2)),)),
         r"'HWP1' parameter 'matrix' holds an array of shape \(2, 2\)"),
    ]:
        with pytest.raises(NetlistError, match=message):
            make()


def test_netlist_with_a_matrix_parameter_is_hashable():
    data = netlist_to_dict(default_netlist())
    for el in data["elements"]:
        if el["name"] == "HWP2":
            r = 1 / math.sqrt(2)
            el["params"] = {"matrix": [[[r, 0.0], [r, 0.0]], [[r, 0.0], [-r, 0.0]]]}
    a, b = netlist_from_dict(data), netlist_from_dict(data)
    assert a == b and hash(a) == hash(b)
    assert netlist_to_dict(a) == data


@pytest.mark.parametrize("key", ["bogus", "t_hh"])
def test_netlist_rejects_unknown_parameter(key):
    # refused when the spec is made, before any netlist holds it
    with pytest.raises(NetlistError, match=f"^element 'F1' of kind 'filter' has unknown parameter '{key}'$"):
        default_netlist().element("F1").with_params(**{key: 0.5})


# every parameter each kind accepts, and the element it must build
KIND_CASES = {
    "pbs": ({"theta_h": 0.1, "theta_v": 1.4},
            lambda a, b: build_element(spec("X", "pbs", (a, b), theta_h=0.1, theta_v=1.4))),
    "ppbs": ({"bar_h": 0.9, "bar_v": 0.5, "theta_h": 0.2, "theta_v": 0.7},
             lambda a, b: build_element(spec("X", "ppbs", (a, b), theta_h=0.2, theta_v=0.7))),
    "beamsplitter": ({"t_h": 0.8, "r_h": 0.6, "t_v": 0.6, "r_v": 0.8},
                     lambda a, b: ElementMatrix(modes_for_ports((a, b)), [
                         [0.8, 0, 0.6, 0], [0, 0.6, 0, 0.8], [-0.6, 0, 0.8, 0], [0, -0.8, 0, 0.6],
                     ])),
    "filter": ({"t_h": 0.5, "t_v": 1.0, "theta_h": 0.3, "theta_v": 0.4},
               lambda a, b: build_element(spec("X", "ppbs", (a, b), theta_h=0.3, theta_v=0.4))),
    "waveplate": ({"preset": "hwp1", "matrix": HADAMARD_MATRIX.tolist()},
                  lambda a, b: wave_plate(a, HADAMARD_MATRIX)),
    "phaseshift": ({"phase_h": 0.3, "phase_v": -0.2},
                   lambda a, b: phase_shift(a, 0.3, -0.2)),
    "detector": ({"rotated": True}, lambda a, b: wave_plate(a, HADAMARD_MATRIX)),
    "dump": ({}, lambda a, b: None),
}
SPARE_PORTS = ("F1_LOSS", "F2_LOSS")


def _with_first_element(el):
    base = default_netlist()
    return Netlist(base.ports, (el,) + base.elements, base.herald, base.encoding)


def test_kind_cases_cover_every_kind_and_parameter():
    assert {kind: set(params) for kind, (params, _) in KIND_CASES.items()} == {
        kind: set(accepted) for kind, (_, accepted) in ELEMENT_KINDS.items()
    }


@pytest.mark.parametrize("kind", sorted(ELEMENT_KINDS))
def test_every_kind_builds_through_a_netlist(kind):
    params, make = KIND_CASES[kind]
    arity, _ = ELEMENT_KINDS[kind]
    nl = _with_first_element(spec("X", kind, SPARE_PORTS[: arity or 2], **params))
    built = [step.element for step in nl.steps]
    expected = make(*SPARE_PORTS)
    if expected is None:
        assert len(built) == len(default_netlist().steps)
    else:
        assert built[0].modes == expected.modes
        assert np.max(np.abs(built[0].matrix - expected.matrix)) < 1e-15
    circuit_matrix(nl)  # composes to a unitary


@pytest.mark.parametrize("kind", sorted(ELEMENT_KINDS))
def test_every_kind_rejects_an_unknown_key_and_a_wrong_port_count(kind):
    params, _ = KIND_CASES[kind]
    arity, _ = ELEMENT_KINDS[kind]
    # refused when the spec is made, before any netlist or `build_element` sees it
    with pytest.raises(NetlistError, match=f"^element 'X' of kind '{kind}' has unknown parameter 'bogus'$"):
        spec("X", kind, SPARE_PORTS[: arity or 2], bogus=1.0, **params)
    if arity is None:  # a dump wires any number of ports
        _with_first_element(spec("X", kind, SPARE_PORTS[:1], **params))
        return
    with pytest.raises(NetlistError, match=f"^element 'X' of kind '{kind}' needs {arity} port"):
        spec("X", kind, SPARE_PORTS[: 3 - arity], **params)


# -- one rule, whichever way in -------------------------------------------------

BAD_VALUES = {"true": True, "string": "x", "nan": math.nan, "inf": math.inf, "list": [0.5],
              "huge_int": 10**400}
RULE_CASES = [
    (kind, key, bad)
    for kind, (_, rules) in sorted(ELEMENT_KINDS.items())
    for key in rules
    for bad in BAD_VALUES
    if (key, bad) != ("rotated", "true")  # a bool is what a detector's flag takes
]


def _file_params(params):
    """`params` as a netlist file holds them: a `matrix` as rows of [re, im] pairs."""
    return {
        key: [[[complex(c).real, complex(c).imag] for c in row] for row in value] if key == "matrix"
        else value
        for key, value in params.items()
    }


def _spec_and_file_errors(kind, params, file_params, tmp_path):
    """The NetlistError texts of element X of `kind` made in Python and loaded from a file."""
    arity, _ = ELEMENT_KINDS[kind]
    ports = SPARE_PORTS[: arity or 2]
    with pytest.raises(NetlistError) as made:
        spec("X", kind, ports, **params)
    data = netlist_to_dict(default_netlist())
    data["elements"].insert(0, {"name": "X", "kind": kind, "ports": list(ports), "params": file_params})
    path = tmp_path / "netlist.json"
    path.write_text(json.dumps(data))
    with pytest.raises(NetlistError) as loaded:
        load_netlist(path)
    return str(made.value), str(loaded.value)


@pytest.mark.parametrize("kind, key, bad", RULE_CASES, ids=["-".join(case) for case in RULE_CASES])
def test_a_parameter_rule_is_one_rule_from_python_and_from_a_file(kind, key, bad, tmp_path):
    value = BAD_VALUES[bad]
    params = KIND_CASES[kind][0]
    file_params = _file_params(params)
    if key == "matrix":  # one bad entry; a file holds it as the real part of its pair
        params = {**params, key: [[value, 0.0], [0.0, 1.0]]}
        file_params[key] = [[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    else:
        params = {**params, key: value}
        file_params[key] = value
    made, loaded = _spec_and_file_errors(kind, params, file_params, tmp_path)
    assert made.startswith(f"element 'X' parameter {key!r} ")
    assert loaded == made


REQUIRED_CASES = [(kind, group) for kind, groups in sorted(gate._REQUIRED.items()) for group in groups]


@pytest.mark.parametrize("kind, group", REQUIRED_CASES, ids=[f"{k}-{g[0]}" for k, g in REQUIRED_CASES])
def test_a_missing_parameter_is_one_rule_from_python_and_from_a_file(kind, group, tmp_path):
    params = {key: value for key, value in KIND_CASES[kind][0].items() if key not in group}
    made, loaded = _spec_and_file_errors(kind, params, _file_params(params), tmp_path)
    assert made == f"element 'X' of kind {kind!r} lacks parameter {group[0]!r}"
    assert loaded == made


HERALD_GAPS = {
    "count_true": ((("T",), (H, V), True), "herald term count must be an integer, got True"),
    "count_float": ((("T",), (H, V), 1.0), "herald term count must be an integer, got 1.0"),
    "count_negative": ((("T",), (H, V), -1), "herald term count must be non-negative, got -1"),
    # a string pol raised a KeyError whose text could not be printed
    "pols_strings": ((("T",), ("H", "V"), 1),
                     "herald term polarization 'H' is not a Polarization (H or V)"),
    # a string named one port per character: "TC" heralded on T and C
    "ports_string": (("TC", (H, V), 2),
                     "herald term ports must be a list of port names, got 'TC'"),
    "ports_number": ((5, (H, V), 1), "herald term ports must be a list of port names, got 5"),
    # a dict gave its keys and a set its items in hash order
    "ports_dict": (({"T": 1}, (H, V), 1), "herald term ports must be a list of port names, got {'T': 1}"),
    "pols_set": ((("T",), {V}, 1),
                 "herald term pols must be a list of polarizations, got {<Polarization.V: 'V'>}"),
    # its V photon was counted twice: only |00> and |01> heralded, with p = 0.0208
    "pol_twice": ((("T",), (H, V, V), 1), "herald term polarization 'V' is given twice"),
}


@pytest.mark.parametrize("fields, message", HERALD_GAPS.values(), ids=HERALD_GAPS.keys())
def test_a_herald_term_checks_its_count_and_pols_when_it_is_made(fields, message):
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        HeraldTerm(*fields)


# a Python spec obeys the netlist file's rules for these two parameters
PARAMETER_TYPE_CASES = {
    # a non-empty string is true: unchecked, it would rotate the detector
    "rotated_string": (("DET", "detector", ("P",), {"rotated": "no"}),
                       "element 'DET' parameter 'rotated' must be true or false"),
    # a list would be realized as a matrix
    "preset_list": (("HWP1", "waveplate", ("L",), {"preset": [[0, 1], [1, 0]]}),
                    "element 'HWP1' parameter 'preset' must be a string, got [[0, 1], [1, 0]]"),
}


@pytest.mark.parametrize("made, message", PARAMETER_TYPE_CASES.values(), ids=PARAMETER_TYPE_CASES.keys())
def test_a_python_spec_obeys_the_file_rules_for_rotated_and_preset(made, message):
    name, kind, ports, params = made
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        spec(name, kind, ports, **params)
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        default_netlist().element(name).with_params(**params)


_NOT_PAIRS = "element 'F1' of kind 'filter' params must be a list of (key, value) pairs, got "
PARAMS_FORM_FAULTS = {
    # a dict gives its keys; it raised ValueError: too many values to unpack
    "dict": ({"t_h": 0.5, "t_v": 0.5}, _NOT_PAIRS + "{'t_h': 0.5, 't_v': 0.5}"),
    "number_key": (((1, 0.5),), _NOT_PAIRS + "(1, 0.5)"),
    "triple": ((("t_h", 0.5, 0.5),), _NOT_PAIRS + "('t_h', 0.5, 0.5)"),
    "number": (0.5, _NOT_PAIRS + "0.5"),
    "set": ({("t_h", 0.5)}, _NOT_PAIRS + "{('t_h', 0.5)}"),
    "none": (None, _NOT_PAIRS + "None"),
    # the last one won: t_h 0.5, then 0.9, gave 0.9
    "key_twice": ((("t_h", 0.5), ("t_v", 0.5), ("t_h", 0.9)), "element 'F1' parameter 't_h' is given twice"),
}


@pytest.mark.parametrize("params, message", PARAMS_FORM_FAULTS.values(), ids=PARAMS_FORM_FAULTS.keys())
def test_a_spec_refuses_params_that_are_not_pairs_of_distinct_keys(params, message):
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        ElementSpec("F1", "filter", ("T", "F1_LOSS"), params)


@pytest.mark.parametrize("make", [spec, ElementSpec], ids=["spec", "ElementSpec"])
def test_a_spec_refuses_a_string_for_its_ports_and_keeps_a_list_as_a_tuple(make):
    # "TL" was wired as the ports T and L, one per character
    message = "element 'X' of kind 'pbs' ports must be a list of port names, got 'TL'"
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        make("X", "pbs", "TL")
    assert make("X", "pbs", ["T", "L"]).ports == ("T", "L")


# -- coupler angles ------------------------------------------------------------------


def test_filter_given_by_angles_alone_equals_attenuating_filter():
    theta_h, theta_v = 1.1, 0.4
    built = build_element(spec("F", "filter", ("a", "b"), theta_h=theta_h, theta_v=theta_v))
    expected = build_element(
        spec("F", "filter", ("a", "b"), t_h=math.cos(theta_h), t_v=math.cos(theta_v))
    )
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
    with pytest.raises(NetlistError, match="^element 'X' of kind 'filter' lacks parameter 't_v'$"):
        coupler_angles(spec("X", "filter", ("a", "b"), theta_h=0.2))
    with pytest.raises(ValueError, match="outside"):
        coupler_angles(spec("X", "ppbs", ("a", "b"), bar_v=1.5, theta_h=0.0))
    with pytest.raises(ValueError, match="not a coupler"):
        coupler_angles(spec("X", "waveplate", ("a",), preset="hwp1"))


def _with_coupler(name, drop=(), **params):
    el = default_netlist().element(name)
    kept = {k: v for k, v in el.param_dict.items() if k not in drop}
    bad = spec(name, el.kind, el.ports, **{**kept, **params})
    return default_netlist().with_overrides({name: bad})


BAD_COUPLERS = {
    "filter_without_t_h": (
        lambda: _with_coupler("F1", drop=("t_h",)),
        "element 'F1' of kind 'filter' lacks parameter 't_h'",
    ),
    "ppbs_bar_above_one": (
        lambda: _with_coupler("PPBS", bar_h=1.5),
        "element 'PPBS': bar amplitude bar_h = 1.5 outside [0, 1]",
    ),
    "filter_angle_not_a_number": (
        lambda: _with_coupler("F1", theta_h="x", theta_v=0.1),
        "element 'F1' parameter 'theta_h' must be a finite number, got 'x'",
    ),
}
COUPLER_ENTRY_POINTS = {
    "extract_gate": lambda nl: extract_gate(nl, 0.4),
    "tolerance_sweep": lambda nl: tolerance_sweep(nl, GAP, "gap"),
    "synthesize_imperfect_elements": lambda nl: synthesize_imperfect_elements(nl, GAP, "gap", 1.0),
}


@pytest.mark.parametrize("entry", sorted(COUPLER_ENTRY_POINTS))
@pytest.mark.parametrize("defect", sorted(BAD_COUPLERS))
def test_a_bad_coupler_raises_one_error_naming_it_on_every_path(defect, entry):
    # the spec is refused when it is made, so every path meets the same error
    make, message = BAD_COUPLERS[defect]
    with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
        COUPLER_ENTRY_POINTS[entry](make())
