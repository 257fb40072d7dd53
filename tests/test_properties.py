"""Randomized invariants: norm preservation, partitioning, multiplicativity."""

import math

import numpy as np
from hypothesis import given, seed, settings
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
    HADAMARD_MATRIX,
    HWP1_MATRIX,
    _check_isometry,
    apply_element,
    coupler_matrices,
    permanent,
    permanents,
    wave_plate,
)
from fockgate.gate import (
    COUPLER_KINDS,
    NetlistError,
    _basis_operators,
    _gathered_transfer,
    build_element,
    coupler_angles,
    coupler_operators,
    default_netlist,
    spec,
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
    bs = build_element(
        spec("BS", "beamsplitter", ("a", "b"), t_h=math.cos(angle), r_h=math.sin(angle))
    )
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


# Plates that pass the per-element 1e-12 check, scaled off unitarity by up to
# 4.9e-13 each: near 0 the netlist lets a sweep skip the circuits' check,
# farther off it does not.
plate_scale = st.one_of(st.sampled_from((0.0, 4.9e-13, -4.9e-13)), st.floats(-1e-14, 1e-14),
                        st.floats(-4.9e-13, 4.9e-13))
PLATES = {"HWP1": ("L", HWP1_MATRIX), "HWP2": ("L", HADAMARD_MATRIX),
          "HWP3": ("L", HADAMARD_MATRIX), "DET": ("P", HADAMARD_MATRIX)}


def _verdict(make):
    """What `make` returns, or the message of the NetlistError it raises."""
    try:
        return make()
    except NetlistError as exc:
        return f"NetlistError: {exc}"


def _bits(result):
    return result if isinstance(result, str) else [array.tobytes() for array in result]


@seed(20211013)
@settings(max_examples=80, deadline=None)
@given(
    scales=st.tuples(*[plate_scale] * len(PLATES)),
    couplers=st.sets(st.integers(0, 5), min_size=1),
    points=st.integers(1, 64),
    magnitude=st.sampled_from((1.0, 1e3, 1e6)),
    draw=st.integers(0, 2**32 - 1),
)
def test_a_sweep_batch_skips_only_the_checks_that_cannot_fail(scales, couplers, points, magnitude, draw):
    base = default_netlist()
    netlist = base.with_overrides({
        name: spec(name, "waveplate", (port,), matrix=(matrix * (1.0 + scale)).tolist())
        for (name, (port, matrix)), scale in zip(PLATES.items(), scales)
    })
    names = tuple(el.name for el in netlist.elements if el.kind in COUPLER_KINDS)
    names = tuple(names[k] for k in sorted(couplers))
    rng = np.random.default_rng(draw)
    thetas = rng.uniform(-magnitude, magnitude, size=(points, len(names), 2))
    thetas[0] = [coupler_angles(netlist.element(name)) for name in names]  # the netlist's own
    slot = {step.spec.name: k for k, step in enumerate(netlist.steps)}
    reflect = np.array([netlist.element(name).kind == "pbs" for name in names])
    blocks = coupler_matrices(np.cos(thetas), np.sin(thetas), reflect)
    stacks = {slot[name]: blocks[:, c] for c, name in enumerate(names)}
    full = _verdict(lambda: netlist.compose(stacks))
    got = _verdict(lambda: coupler_operators(netlist, names, thetas, 0.7))
    if netlist._steps_near_unitary:
        # the skipped check cannot fail, and the row block is those rows of the full product
        assert not isinstance(full, str)
        _check_isometry(full, "composed circuit matrix is not unitary: {:.3g}")
        rows, _ = netlist._row_block
        assert netlist._compose_rows(stacks, rows).tobytes() == full[:, rows].tobytes()
    if isinstance(full, str):  # refused: the batch is refused with the same message
        assert got == full
        return
    amps = _gathered_transfer(full, netlist.basis_gather)
    want = _verdict(lambda: _basis_operators(netlist.readout, amps, 0.7))
    assert _bits(got) == _bits(want)
