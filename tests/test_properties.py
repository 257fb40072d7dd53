"""Randomized invariants: norm preservation, partitioning, multiplicativity."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockgate.fock import (
    HeraldPattern,
    Mode,
    PureState,
    H,
    V,
    modes_for_ports,
    norm_squared,
    project_herald,
    tensor,
)
from fockgate.elements import (
    apply_element,
    beam_splitter,
    permanent,
    permanents,
    wave_plate,
)

MODES = modes_for_ports(["a", "b"])


def normalized_state(amps):
    vecs = [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0)]
    terms = {v: complex(re, im) for v, (re, im) in zip(vecs, amps)}
    norm = math.sqrt(sum(abs(c) ** 2 for c in terms.values()))
    if norm == 0:
        terms = {vecs[0]: 1.0}
        norm = 1.0
    return PureState(MODES, {k: v / norm for k, v in terms.items()})


amp_pairs = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
)
state_strategy = st.lists(amp_pairs, min_size=5, max_size=5).map(normalized_state)


@settings(max_examples=40, deadline=None)
@given(state=state_strategy, angle=st.floats(0.01, math.pi / 2 - 0.01))
def test_norm_preserved_by_any_coupler(state, angle):
    bs = beam_splitter("a", "b", t_h=math.cos(angle), r_h=math.sin(angle))
    out = apply_element(state, bs)
    assert abs(norm_squared(out) - norm_squared(state)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(state=state_strategy)
def test_exhaustive_partition_sums_to_norm(state):
    total = 0.0
    subset = [Mode("a", H), Mode("a", V)]
    for count in range(4):
        pattern = HeraldPattern.on_modes(MODES, [(subset, count)])
        total += project_herald(state, pattern)[1]
    assert abs(total - norm_squared(state)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(state=state_strategy, angle=st.floats(0, 2 * math.pi))
def test_waveplate_norm_and_photon_number(state, angle):
    c, s = math.cos(angle), math.sin(angle)
    plate = wave_plate("a", [[c, s], [-s, c]])
    out = apply_element(state, plate)
    assert abs(norm_squared(out) - norm_squared(state)) < 1e-12
    totals_in = {sum(v) for v, _ in state.items()}
    for vec, _ in out.items():
        assert sum(vec) in totals_in


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(amp_pairs, min_size=2, max_size=2),
    b=st.lists(amp_pairs, min_size=2, max_size=2),
)
def test_tensor_norm_multiplicative(a, b):
    ma = modes_for_ports(["x"])
    mb = modes_for_ports(["y"])
    sa = PureState(ma, {(1, 0): complex(*a[0]), (0, 1): complex(*a[1])})
    sb = PureState(mb, {(1, 0): complex(*b[0]), (0, 2): complex(*b[1])})
    joint = tensor(sa, sb)
    assert abs(
        norm_squared(joint) - norm_squared(sa) * norm_squared(sb)
    ) < 1e-12


complex_entry = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def square_stacks(n):
    matrix = st.lists(complex_entry, min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs, dtype=complex).reshape(n, n)
    )
    return st.lists(matrix, min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(stack=st.integers(0, 4).flatmap(square_stacks))
def test_batched_permanents_match_permutation_sum(stack):
    batch = np.stack(stack)
    got = permanents(batch)
    assert got.shape == (len(stack),)
    for value, m in zip(got, stack):
        # rounding scale: the permanent of |m| bounds every partial sum
        scale = permanent(np.abs(m)).real
        assert abs(value - permanent(m)) <= 1e-12 * scale
