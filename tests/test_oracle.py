"""Full-circuit equivalence of sequential simulation and the permanent engines."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from fockgate.design import DIMENSIONS, CouplerPhysics, synthesize_imperfect_elements
from fockgate.fock import (
    H,
    V,
    Mode,
    PureState,
    modes_for_ports,
    program_state,
    project_herald,
    qubit_state,
    tensor,
)
from fockgate.elements import amplitude_via_permanent
from fockgate.gate import (
    BASIS_LABELS,
    ElementSpec,
    HeraldTerm,
    Netlist,
    ProgramState,
    circuit_matrix,
    default_netlist,
    extract_gate,
    heralded_output_amplitudes,
    ideal_cphase,
    prepare_input,
    process_fidelity,
    run_elements,
    run_heralded,
    spec,
)


def all_occupations(n_modes, n_photons):
    for cuts in itertools.combinations(range(n_modes + n_photons - 1), n_modes - 1):
        vec = []
        prev = -1
        for c in cuts:
            vec.append(c - prev - 1)
            prev = c
        vec.append(n_modes + n_photons - 2 - prev)
        yield tuple(vec)


def test_full_netlist_matches_permanent_oracle_on_all_inputs():
    netlist = default_netlist()
    unitary = circuit_matrix(netlist)
    modes = list(netlist.modes)
    assert len(modes) == 12

    enc = netlist.encoding
    choices = (None, H, V)
    worst = 0.0
    compared = 0
    for t, c, p in itertools.product(choices, repeat=3):
        vec = [0] * len(modes)
        for port, pol in ((enc.target, t), (enc.control, c), (enc.program, p)):
            if pol is not None:
                vec[modes.index(Mode(port, pol))] = 1
        in_vec = tuple(vec)
        out = run_elements(netlist, PureState(modes, {in_vec: 1.0}))
        seq = dict(out.items())
        for out_vec in all_occupations(len(modes), sum(in_vec)):
            oracle = amplitude_via_permanent(unitary, in_vec, out_vec)
            worst = max(worst, abs(seq.get(out_vec, 0.0) - oracle))
            compared += 1
    assert compared > 1000
    assert worst < 1e-10


def test_circuit_matrix_is_unitary():
    unitary = circuit_matrix(default_netlist())
    dev = np.max(np.abs(unitary @ unitary.conj().T - np.eye(unitary.shape[0])))
    assert dev < 1e-12


# -- extract_gate against the sequential Fock engine ----------------------------

BASIS = {"0": (1.0, 0.0), "1": (0.0, 1.0)}
GATE_PHIS = (0.0, 1.0, math.pi, 5.5)
ENGINE_TOL = 1e-12


def fock_engine_heralded(netlist, state):
    """Heralded branch and probability from the sequential Fock engine."""
    return project_herald(run_elements(netlist, state), netlist.herald_pattern())


def fock_engine_gate(netlist, phi):
    """Operator and herald probabilities from four sequential Fock runs."""
    op = np.zeros((4, 4), dtype=complex)
    probs = {}
    for col, label in enumerate(BASIS_LABELS):
        state = prepare_input(
            netlist, BASIS[label[0]], BASIS[label[1]], ProgramState(phi)
        )
        branch, prob = fock_engine_heralded(netlist, state)
        probs[label] = prob
        op[:, col] = heralded_output_amplitudes(netlist, branch)
    return op, probs


def _perturbed(dimension, delta):
    netlist = default_netlist()
    physics = CouplerPhysics().with_sensitivities(dimension, 0.004, -0.003)
    return netlist.with_overrides(
        synthesize_imperfect_elements(netlist, physics, dimension, delta)
    )


def _hwp1_override():
    phase = complex(math.cos(0.3), math.sin(0.3))
    alt = np.array(
        [[-math.sqrt(3) / 2 * phase, 0.5 * phase], [0.5, math.sqrt(3) / 2]],
        dtype=complex,
    )
    return default_netlist().with_overrides(
        {"HWP1": ElementSpec("HWP1", "waveplate", ("L",), (("matrix", alt),))}
    )


def _balanced_pbs3():
    # cancellations leave amplitudes of ~1e-17 that both engines must prune
    return default_netlist().with_overrides(
        {"PBS3": spec("PBS3", "pbs", ("L", "P"), theta_h=math.pi / 4, theta_v=math.pi / 4)}
    )


def _with_herald(*terms):
    netlist = default_netlist()
    return Netlist(netlist.ports, netlist.elements, terms, netlist.encoding)


ENGINE_CASES = {
    "nominal": default_netlist,
    "hwp1_matrix": _hwp1_override,
    "pbs3_balanced": _balanced_pbs3,
    # the third photon may land anywhere, so outputs with two photons in
    # one mode herald too
    "herald_two_at_t_c": lambda: _with_herald(HeraldTerm(("T", "C"), (H, V), 2)),
    "herald_three_at_t_c_p": lambda: _with_herald(HeraldTerm(("T", "C", "P"), (H, V), 3)),
}
for _dim in DIMENSIONS:
    for _delta in (-10.0, -3.0, 3.0, 10.0):
        ENGINE_CASES[f"{_dim}{_delta:+g}nm"] = (
            lambda d=_dim, x=_delta: _perturbed(d, x)
        )


def _assert_engines_agree(netlist, phi):
    want_op, want_probs = fock_engine_gate(netlist, phi)
    if not want_op.any():
        # everything cancels, so no fidelity exists; both engines must say so
        with pytest.raises(ValueError, match="zero operator"):
            extract_gate(netlist, phi)
        return
    got = extract_gate(netlist, phi)
    assert np.max(np.abs(got.operator - want_op)) <= ENGINE_TOL
    assert np.array_equal(got.operator == 0, want_op == 0)
    for label in BASIS_LABELS:
        assert abs(got.herald_probability[label] - want_probs[label]) <= ENGINE_TOL
    want_fid = process_fidelity(want_op, ideal_cphase(phi))
    assert abs(got.fidelity - want_fid) <= ENGINE_TOL


@pytest.mark.parametrize("phi", GATE_PHIS)
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_extract_gate_matches_fock_engine(case, phi):
    _assert_engines_agree(ENGINE_CASES[case](), phi)


@pytest.mark.parametrize("phi", GATE_PHIS)
def test_extract_gate_matches_fock_engine_moved_f2(moved_f2_netlist, phi):
    _assert_engines_agree(moved_f2_netlist, phi)


# -- run_heralded against the sequential Fock engine ----------------------------


def _assert_branches_agree(netlist, state):
    want, want_prob = fock_engine_heralded(netlist, state)
    got, got_prob = run_heralded(netlist, state)
    assert got.modes == want.modes == netlist.modes
    want_terms, got_terms = dict(want.items()), dict(got.items())
    assert got_terms.keys() == want_terms.keys()
    for vec, amp in want_terms.items():
        assert abs(got_terms[vec] - amp) <= ENGINE_TOL
    assert abs(got_prob - want_prob) <= ENGINE_TOL


def _random_qubit(rng):
    alpha = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    beta = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.hypot(abs(alpha), abs(beta))
    return alpha / norm, beta / norm


def _check_random_inputs(netlist, phi, seed):
    rng = random.Random(seed)
    for _ in range(3):
        state = prepare_input(
            netlist, _random_qubit(rng), _random_qubit(rng), ProgramState(phi)
        )
        _assert_branches_agree(netlist, state)


@pytest.mark.parametrize("phi", GATE_PHIS)
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_run_heralded_matches_fock_engine(case, phi):
    _check_random_inputs(ENGINE_CASES[case](), phi, f"{case}-{phi}")


@pytest.mark.parametrize("phi", GATE_PHIS)
def test_run_heralded_matches_fock_engine_moved_f2(moved_f2_netlist, phi):
    _check_random_inputs(moved_f2_netlist, phi, f"moved_f2-{phi}")


def _fock_state(netlist, *occupied):
    modes = list(netlist.modes)
    vec = [0] * len(modes)
    for port, pol in occupied:
        vec[modes.index(Mode(port, pol))] += 1
    return tuple(vec)


def _four_photon_terms(netlist):
    return {
        _fock_state(netlist, ("T", H), ("C", V), ("P", H), ("P", V)): 0.6,
        _fock_state(netlist, ("T", V), ("T", V), ("C", H), ("P", H)): 0.8j,
    }


def test_run_heralded_matches_fock_engine_four_photons():
    netlist = default_netlist()
    state = PureState(netlist.modes, _four_photon_terms(netlist))
    _assert_branches_agree(netlist, state)
    assert run_heralded(netlist, state)[1] > 0


def test_run_heralded_matches_fock_engine_vacuum():
    netlist = default_netlist()
    state = PureState.vacuum(netlist.modes)
    _assert_branches_agree(netlist, state)
    assert run_heralded(netlist, state)[1] == 0


def test_run_heralded_matches_fock_engine_mixed_photon_numbers():
    netlist = default_netlist()
    terms = {k: v / math.sqrt(2) for k, v in _four_photon_terms(netlist).items()}
    three = _fock_state(netlist, ("T", V), ("C", V), ("P", V))
    terms[three] = cmath.exp(0.4j) / math.sqrt(2)
    state = PureState(netlist.modes, terms)
    _assert_branches_agree(netlist, state)
    branch, _ = run_heralded(netlist, state)
    assert {sum(vec) for vec, _ in branch.items()} == {3, 4}


def test_run_heralded_lays_state_out_on_netlist_modes():
    # tensor() orders modes T, C, P, not the netlist's T, L, C, P, ...
    netlist = default_netlist()
    state = tensor(
        tensor(
            qubit_state(modes_for_ports(["T"]), "T", 1, 0),
            qubit_state(modes_for_ports(["C"]), "C", 0, 1),
        ),
        program_state(modes_for_ports(["P"]), "P", 0.3),
    )
    branch, prob = run_heralded(netlist, state)
    assert abs(prob - 1 / 48) < 1e-12
    assert branch.modes == netlist.modes
