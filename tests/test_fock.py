import math

import pytest

from fockgate.fock import (
    H,
    V,
    HeraldPattern,
    Mode,
    PureState,
    modes_for_ports,
    norm_squared,
    program_state,
    project_herald,
    qubit_state,
    tensor,
)

M1 = (Mode("m", H),)
N1 = (Mode("n", H),)


def test_norm_squared_empty_state():
    state = PureState(M1, {})
    assert norm_squared(state) == 0


def test_norm_squared_single_term():
    state = PureState(M1, {(1,): 1.0})
    assert norm_squared(state) == 1.0


def test_norm_squared_two_terms_normalized():
    state = PureState(M1, {(0,): 1 / math.sqrt(2), (1,): 1j / math.sqrt(2)})
    assert abs(norm_squared(state) - 1.0) < 1e-15


def test_tensor_single_photons():
    a = PureState(M1, {(1,): 1.0})
    b = PureState(N1, {(1,): 1.0})
    joint = tensor(a, b)
    assert joint.amplitude((1, 1)) == 1.0
    assert len(joint) == 1


def test_tensor_superposition_with_fock():
    a = PureState(M1, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
    b = PureState(N1, {(1,): 1.0})
    joint = tensor(a, b)
    assert abs(joint.amplitude((0, 1)) - 1 / math.sqrt(2)) < 1e-15
    assert abs(joint.amplitude((1, 1)) - 1 / math.sqrt(2)) < 1e-15


def test_tensor_norm_multiplicative():
    a = PureState(M1, {(0,): 0.6, (1,): 0.8})
    b = PureState(N1, {(0,): 0.5, (2,): 0.5})
    assert abs(
        norm_squared(tensor(a, b)) - norm_squared(a) * norm_squared(b)
    ) < 1e-15


def test_tensor_rejects_overlapping_modes():
    a = PureState(M1, {(1,): 1.0})
    b = PureState(M1, {(1,): 1.0})
    with pytest.raises(ValueError, match="m"):
        tensor(a, b)


def test_tensor_associative():
    c_modes = (Mode("p", V),)
    a = PureState(M1, {(0,): 0.6, (1,): 0.8})
    b = PureState(N1, {(1,): 1.0})
    c = PureState(c_modes, {(0,): 1j})
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert list(left.items()) == list(right.items())


def test_project_herald_splits_superposition():
    modes = (Mode("a", H), Mode("b", H))
    state = PureState(modes, {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    pattern = HeraldPattern.on_modes(modes, [([Mode("a", H)], 1)])
    branch, prob = project_herald(state, pattern)
    assert abs(prob - 0.5) < 1e-15
    assert abs(branch.amplitude((1, 0)) - 1 / math.sqrt(2)) < 1e-15
    assert branch.amplitude((0, 1)) == 0
    assert branch.subnormalized


def test_project_herald_no_match():
    modes = (Mode("a", H),)
    state = PureState(modes, {(1,): 1.0})
    pattern = HeraldPattern.on_modes(modes, [([Mode("a", H)], 3)])
    branch, prob = project_herald(state, pattern)
    assert prob == 0
    assert len(branch) == 0


def test_project_herald_unknown_mode_rejected():
    modes = (Mode("a", H),)
    with pytest.raises(KeyError):
        HeraldPattern.on_modes(modes, [([Mode("zz", V)], 1)])


def test_always_true_pattern_is_identity():
    modes = (Mode("a", H), Mode("a", V))
    state = PureState(modes, {(1, 0): 0.6, (0, 2): 0.8j})
    branch, prob = project_herald(state, HeraldPattern())
    assert abs(prob - norm_squared(state)) < 1e-15
    assert list(branch.items()) == list(state.items())


def test_disjoint_exhaustive_patterns_partition_norm():
    modes = (Mode("a", H), Mode("a", V))
    state = PureState(
        modes, {(1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.5, (2, 0): 0.5}
    )
    total = 0.0
    for count in range(4):
        pattern = HeraldPattern.on_modes(modes, [(list(modes), count)])
        total += project_herald(state, pattern)[1]
    assert abs(total - norm_squared(state)) < 1e-12


def test_term_iteration_is_stable():
    modes = (Mode("a", H), Mode("a", V))
    state = PureState(modes, {(0, 1): 0.6, (1, 0): 0.8})
    assert list(state.items()) == list(state.items())
    # canonical order is lexicographic over occupation vectors
    assert [vec for vec, _ in state.items()] == [(0, 1), (1, 0)]


def test_pruning_drops_tiny_amplitudes():
    state = PureState(M1, {(0,): 1.0, (1,): 1e-15})
    assert len(state) == 1


def test_qubit_state_rejects_unnormalized():
    modes = modes_for_ports(["q"])
    with pytest.raises(ValueError, match="deviates"):
        qubit_state(modes, "q", 1.0, 1.0)


@pytest.mark.parametrize(
    "alpha, beta", [(math.nan, 0.0), (1.0, complex(0.0, math.inf)), (math.inf, math.nan)]
)
def test_qubit_state_rejects_non_finite(alpha, beta):
    # NaN fails every comparison, so the normalization test alone lets it through
    modes = modes_for_ports(["q"])
    with pytest.raises(ValueError, match="finite"):
        qubit_state(modes, "q", alpha, beta)


def test_program_state_rejects_non_finite_phase():
    with pytest.raises(ValueError, match="finite"):
        program_state(modes_for_ports(["p"]), "p", math.nan)


def test_program_state_form():
    modes = modes_for_ports(["p"])
    phi = 0.7
    state = program_state(modes, "p", phi)
    amp_h = state.amplitude((1, 0))
    amp_v = state.amplitude((0, 1))
    assert abs(amp_h - 1 / math.sqrt(2)) < 1e-15
    assert abs(amp_v - complex(math.cos(phi), math.sin(phi)) / math.sqrt(2)) < 1e-15
