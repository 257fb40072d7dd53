import math
import random

import pytest

from fockgate.fock import (
    PRUNE_THRESHOLD,
    H,
    V,
    HeraldPattern,
    Mode,
    PureState,
    check_qubit,
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


def test_pruning_keeps_5e_14_and_drops_5e_15():
    # literal values: a test scaled by PRUNE_THRESHOLD moves with it
    assert len(PureState(M1, {(1,): 5e-14})) == 1
    assert len(PureState(M1, {(1,): 5e-15})) == 0


def test_check_qubit_refuses_a_norm_off_by_1e_10():
    check_qubit(math.sqrt(1 + 1e-13), 0)
    with pytest.raises(ValueError, match="deviates"):
        check_qubit(math.sqrt(1 + 1e-10), 0)


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


@pytest.mark.parametrize(
    "amp", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)]
)
def test_pure_state_rejects_non_finite_amplitude(amp):
    # a NaN amplitude fails the pruning comparison too, so it must not be dropped silently
    with pytest.raises(ValueError, match="not finite"):
        PureState(modes_for_ports(["a"]), {(1, 0): amp, (0, 1): 1.0})


@pytest.mark.parametrize("vec", [(-1, 1, 0, 0), (0, 1, -1, 0), (0, 1, 0, -2)])
def test_pure_state_rejects_a_negative_occupation_anywhere(vec):
    with pytest.raises(ValueError, match="negative occupation"):
        PureState(modes_for_ports(["a", "b"]), {(0, 1, 0, 0): 0.6, vec: 0.8})


# -- PureState: the constructor's checks and its core --------------------------


def _random_terms(rng, n_modes):
    """Seeded terms mixing photon numbers 0-4, with amplitudes on both sides of the prune threshold."""
    terms = {}
    for _ in range(rng.randint(0, 12)):
        vec = [0] * n_modes
        for _ in range(rng.randint(0, 4)):
            vec[rng.randrange(n_modes)] += 1
        scale = rng.choice((1.0, 1.0, PRUNE_THRESHOLD, 0.5 * PRUNE_THRESHOLD, 1e-20, 0.0))
        terms[tuple(vec)] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) * scale
    return terms


@pytest.mark.parametrize("seed", range(40))
def test_pure_state_core_builds_the_constructors_state(seed):
    rng = random.Random(seed)
    modes = modes_for_ports(["a", "b", "c"][: rng.randint(1, 3)])
    terms = _random_terms(rng, len(modes))
    subnormalized = rng.random() < 0.5
    public = PureState(modes, terms, subnormalized=subnormalized)
    core = PureState._from_valid(modes, terms, subnormalized=subnormalized)
    assert core.modes == public.modes == modes
    assert core.subnormalized is public.subnormalized is subnormalized
    # same terms in the same order, each amplitude the same complex bit for bit
    got, want = list(core.items()), list(public.items())
    assert [vec for vec, _ in got] == [vec for vec, _ in want] == sorted(
        vec for vec, amp in terms.items() if abs(amp) >= PRUNE_THRESHOLD
    )
    for (_, a), (_, b) in zip(got, want):
        assert type(a) is type(b) is complex
        assert (a.real, a.imag) == (b.real, b.imag)
        assert math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
    assert norm_squared(core) == norm_squared(public)


@pytest.mark.parametrize(
    "terms, message",
    [
        ({(1, 0, 0): 1.0}, "occupation vector of length 3 does not match 2 modes"),
        ({(1, 0): 0.6, (1,): 0.8}, "occupation vector of length 1 does not match 2 modes"),
        ({(1, 0): 0.6, (2, -1): 0.8}, "negative occupation in (2, -1)"),
        ({(0, 1): 0.6, (1, 0): complex(math.nan, 0.0)}, "amplitude (nan+0j) of (1, 0) is not finite"),
        ({(1, 0): math.inf}, "amplitude inf of (1, 0) is not finite"),
    ],
)
def test_pure_state_refuses_with_its_messages(terms, message):
    with pytest.raises(ValueError) as info:
        PureState(modes_for_ports(["a"]), terms)
    assert info.value.args[0] == message


@pytest.mark.parametrize("amp", [math.nan, complex(0.0, math.inf)])
def test_pure_state_core_refuses_a_non_finite_amplitude(amp):
    with pytest.raises(ValueError, match="is not finite"):
        PureState._from_valid(modes_for_ports(["a"]), {(0, 1): 1.0, (1, 0): amp})
