import itertools
import math

import numpy as np
import pytest

from fockgate.fock import H, V, Mode, PureState, modes_for_ports, norm_squared
from fockgate.elements import (
    HADAMARD_MATRIX,
    ElementMatrix,
    HWP1_MATRIX,
    _compositions,
    _minor_tables,
    _multinomial,
    _weighted_compositions,
    PPBS_BARS,
    amplitude_via_permanent,
    apply_element,
    column_placement,
    compose_circuit_matrix,
    compose_rows,
    coupler_matrices,
    permanent,
    permanents,
    phase_shift,
    rotator_from_conversion,
    wave_plate,
)
from fockgate.gate import NetlistError, build_element, spec

AB = modes_for_ports(["a", "b"])
R2 = 1 / math.sqrt(2)


def fock(modes, **occ):
    vec = [0] * len(modes)
    for key, n in occ.items():
        port, pol = key.split("_")
        vec[list(modes).index(Mode(port, H if pol == "h" else V))] = n
    return PureState(modes, {tuple(vec): 1.0})


def built(kind, ports=("a", "b"), **params):
    """The element matrix `build_element` realizes for one element of `kind`."""
    return build_element(spec("X", kind, ports, **params))


def columns_of(modes, subset):
    """The circuit columns of the modes of `subset`: their indices in `modes`."""
    return np.array([list(modes).index(mode) for mode in subset])


def compose(elements, modes):
    """compose_circuit_matrix with each element's columns resolved from its modes."""
    columns = [columns_of(modes, el.modes) for el in elements]
    return compose_circuit_matrix([el.matrix for el in elements], columns, len(modes))


# -- element construction ----------------------------------------------------


def test_ppbs_default_block():
    el = built("ppbs")
    # V block in transfer orientation: [[t, r], [-r, t]] with t = 1/sqrt3
    t, r = 1 / math.sqrt(3), math.sqrt(2.0 / 3.0)
    idx_av = el.modes.index(Mode("a", V))
    idx_bv = el.modes.index(Mode("b", V))
    assert abs(el.matrix[idx_av, idx_av] - t) < 1e-15
    assert abs(el.matrix[idx_av, idx_bv] - r) < 1e-15
    assert abs(el.matrix[idx_bv, idx_av] + r) < 1e-15
    assert abs(el.matrix[idx_bv, idx_bv] - t) < 1e-15
    # H modes untouched
    idx_ah = el.modes.index(Mode("a", H))
    assert el.matrix[idx_ah, idx_ah] == 1.0


def test_beam_splitter_requires_unit_split():
    with pytest.raises(ValueError, match="t\\^2 \\+ r\\^2"):
        built("beamsplitter", t_h=0.9, r_h=0.9)
    with pytest.raises(ValueError, match="V amplitudes violate"):
        built("beamsplitter", t_h=0.6, r_h=0.8, t_v=0.6, r_v=0.6)


def test_filter_amplitude_range_checked():
    with pytest.raises(ValueError, match="outside"):
        built("filter", ("a", "loss"), t_h=1.2, t_v=1.0)
    with pytest.raises(NetlistError, match=r"^element 'X': bar amplitude t_v = -0.1 outside \[0, 1\]$"):
        built("filter", ("a", "loss"), t_h=1.0, t_v=-0.1)
    with pytest.raises(NetlistError, match=r"bar amplitude bar_h = 1.5 outside"):
        built("ppbs", bar_h=1.5)
    with pytest.raises(NetlistError, match=r"^element 'X' parameter 'bar_v' must be a finite number, got 'x'$"):
        built("ppbs", bar_v="x")


def test_waveplate_rejects_nonunitary():
    with pytest.raises(ValueError, match="deviation"):
        wave_plate("a", np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "matrix",
    [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.1], [0.0, 1.0]]],
    ids=["nan", "non_unitary"],
)
def test_waveplate_matrix_checked_as_an_element(matrix):
    with pytest.raises(ValueError, match="not an isometry"):
        wave_plate("a", np.array(matrix))


def test_full_transmission_filter_is_identity_plus_unreachable_loss():
    el = built("filter", ("a", "loss"), t_h=1.0, t_v=1.0)
    state = fock(modes_for_ports(["a"]), a_h=1)
    out = apply_element(state, el)
    assert len(out) == 1
    amp = out.amplitude((1, 0, 0, 0))
    assert abs(amp - 1.0) < 1e-15


def test_hadamard_involution():
    had = wave_plate("a", "hadamard")
    state = PureState(
        modes_for_ports(["a"]), {(1, 0): 0.6, (0, 1): 0.8j}
    )
    out = apply_element(apply_element(state, had), had)
    for vec, amp in state.items():
        assert abs(out.amplitude(vec) - amp) < 1e-12


def test_hwp1_pinned_action_on_v():
    # V -> (1/2) H + (sqrt3/2) V, read off the V row in transfer orientation
    assert abs(HWP1_MATRIX[1, 0] - 0.5) < 1e-15
    assert abs(HWP1_MATRIX[1, 1] - math.sqrt(3) / 2) < 1e-15
    # completion column: H -> (-sqrt3/2) H + (1/2) V
    assert abs(HWP1_MATRIX[0, 0] + math.sqrt(3) / 2) < 1e-15
    assert abs(HWP1_MATRIX[0, 1] - 0.5) < 1e-15


def test_rotator_from_conversion_matches_presets():
    quarter = rotator_from_conversion("a", 0.25, input_pol=V)
    assert np.allclose(quarter.matrix, HWP1_MATRIX)
    half = rotator_from_conversion("a", 0.5, input_pol=H)
    assert np.allclose(half.matrix, HADAMARD_MATRIX)


def test_reflection_coupler_reduces_to_routing_pbs_at_nominal():
    ideal = built("pbs")
    nominal = built("pbs", theta_h=0.0, theta_v=math.pi / 2)
    assert np.allclose(ideal.matrix, nominal.matrix, atol=1e-15)


def _rotation_blocks(t_h, r_h, t_v, r_v):
    return [[t_h, 0, r_h, 0], [0, t_v, 0, r_v], [-r_h, 0, t_h, 0], [0, -r_v, 0, t_v]]


T_PPBS = PPBS_BARS[1]
NOMINAL_FILLS = {
    # the routing PBS: the V block in reflection form, whose [3, 3] entry is -0.0
    "pbs": ({}, [[1, 0, 0, 0], [0, 0, 0, 1], [-0.0, 0, 1, 0], [0, 1, 0, -0.0]]),
    "ppbs": ({}, _rotation_blocks(1.0, 0.0, T_PPBS, math.sqrt(1.0 - T_PPBS * T_PPBS))),
    "filter": (
        {"t_h": 0.6, "t_v": 0.25},
        _rotation_blocks(0.6, math.sqrt(1.0 - 0.6 * 0.6), 0.25, math.sqrt(1.0 - 0.25 * 0.25)),
    ),
    "beamsplitter": ({"t_h": 0.6, "r_h": -0.8, "t_v": 0.8, "r_v": 0.6},
                     _rotation_blocks(0.6, -0.8, 0.8, 0.6)),
}


@pytest.mark.parametrize("kind", sorted(NOMINAL_FILLS))
def test_nominal_coupler_fill_is_its_closed_form_byte_for_byte(kind):
    params, closed_form = NOMINAL_FILLS[kind]
    el = built(kind, **params)
    assert el.modes == AB
    # bytes, so a signed zero that moves shows
    assert el.matrix.tobytes() == np.array(closed_form, dtype=complex).tobytes()


# -- single-photon routing -----------------------------------------------------


def test_bs_single_photon_rotation_convention():
    bs = built("beamsplitter", t_h=R2, r_h=R2)
    out = apply_element(fock(AB, a_h=1), bs)
    assert abs(out.amplitude((1, 0, 0, 0)) - R2) < 1e-15
    assert abs(out.amplitude((0, 0, 1, 0)) - R2) < 1e-15


def test_pbs_routing():
    pbs = built("pbs")
    out_h = apply_element(fock(AB, a_h=1), pbs)
    assert abs(abs(out_h.amplitude((1, 0, 0, 0))) - 1.0) < 1e-15
    out_v = apply_element(fock(AB, a_v=1), pbs)
    assert abs(abs(out_v.amplitude((0, 0, 0, 1))) - 1.0) < 1e-15


def test_phase_shift():
    el = phase_shift("a", phase_v=math.pi / 2)
    out = apply_element(fock(modes_for_ports(["a"]), a_v=1), el)
    assert abs(out.amplitude((0, 1)) - 1j) < 1e-15


# -- two-photon interference ---------------------------------------------------


def test_hom_dip_at_50_50():
    bs = built("beamsplitter", t_h=R2, r_h=R2)
    both = fock(AB, a_h=1, b_h=1)
    out = apply_element(both, bs)
    # coincidence amplitude t^2 - r^2 = 0
    assert abs(out.amplitude((1, 0, 1, 0))) < 1e-15
    # photons bunch: |2,0> and |0,2> with amplitude +-1/sqrt2
    assert abs(abs(out.amplitude((2, 0, 0, 0))) - R2) < 1e-15
    assert abs(abs(out.amplitude((0, 0, 2, 0))) - R2) < 1e-15


def test_ppbs_two_v_coincidence_is_minus_third():
    ppbs = built("ppbs")
    both_v = fock(AB, a_v=1, b_v=1)
    out = apply_element(both_v, ppbs)
    # hand expansion: (t a + r b)(-r a + t b) keeps t^2 - r^2 on the
    # coincidence term = 1/3 - 2/3 = -1/3
    assert abs(out.amplitude((0, 1, 0, 1)) - (-1.0 / 3.0)) < 1e-12
    # cross-check against the permanent oracle
    unitary = compose([ppbs], AB)
    oracle = amplitude_via_permanent(unitary, (0, 1, 0, 1), (0, 1, 0, 1))
    assert abs(oracle - (-1.0 / 3.0)) < 1e-12


# -- permanent oracle ------------------------------------------------------------


def test_permanent_definition_2x2():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(m) == 1 * 4 + 2 * 3


def test_permanent_all_ones_3x3():
    assert permanent(np.ones((3, 3))) == 6


def test_amplitude_via_permanent_identity():
    eye = np.eye(4, dtype=complex)
    assert amplitude_via_permanent(eye, (1, 0, 2, 0), (1, 0, 2, 0)) == 1.0
    assert amplitude_via_permanent(eye, (1, 0, 2, 0), (0, 1, 2, 0)) == 0.0


def test_amplitude_via_permanent_rejects_mismatched_totals():
    with pytest.raises(ValueError, match="totals differ"):
        amplitude_via_permanent(np.eye(2), (1, 0), (1, 1))


def test_sequential_matches_permanent_on_small_circuit():
    elements = [
        wave_plate("a", "hadamard"),
        built("ppbs"),
        built("beamsplitter", t_h=0.6, r_h=0.8),
    ]
    unitary = compose(elements, AB)
    state = fock(AB, a_v=1, b_v=1)
    for el in elements:
        state = apply_element(state, el)
    in_vec = (0, 1, 0, 1)
    for out_vec, amp in state.items():
        oracle = amplitude_via_permanent(unitary, in_vec, out_vec)
        assert abs(amp - oracle) < 1e-12


def test_compose_empty_circuit_is_identity():
    assert np.allclose(compose([], AB), np.eye(4))


def test_compose_single_pbs_is_its_embedding():
    pbs = built("pbs")
    full = compose([pbs], AB)
    assert np.allclose(full, pbs.matrix)


@pytest.mark.parametrize("columns", [[0, 1, 2], [0, 1, 2, 4], [-1, 1, 2, 3]])
def test_compose_rejects_columns_that_do_not_place_the_element(columns):
    pbs = built("pbs")
    with pytest.raises(ValueError, match="do not place"):
        compose_circuit_matrix([pbs.matrix], [np.array(columns)], 4)


def test_compose_places_each_element_on_its_columns():
    # the PBS acts on modes (bH, bV, aH, aV) of the (a, b) circuit
    pbs = built("pbs", ("b", "a"))
    full = compose_circuit_matrix([pbs.matrix], [np.array([2, 3, 0, 1])], 4)
    assert np.array_equal(full, compose([pbs], AB))
    assert np.array_equal(full[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])], pbs.matrix)


# -- stacks of coupler matrices ---------------------------------------------------
# An ElementMatrix holds one matrix; a sweep stacks coupler matrices with
# `coupler_matrices` and composes the stack with `compose_circuit_matrix`.

ANGLES_H = np.array([0.0, 0.3, -1.1])
ANGLES_V = np.array([math.pi / 2, 1.2, 0.4])
THETAS = np.stack([ANGLES_H, ANGLES_V], axis=-1)
COS, SIN = np.cos(THETAS), np.sin(THETAS)


def test_rotation_coupler_is_beam_splitter_of_cos_and_sin():
    rot = built("ppbs", theta_h=0.3, theta_v=1.2)
    bs = built("beamsplitter", t_h=math.cos(0.3), r_h=math.sin(0.3),
               t_v=math.cos(1.2), r_v=math.sin(1.2))
    assert np.array_equal(rot.matrix, bs.matrix)


@pytest.mark.parametrize("v_reflect", [False, True])
def test_coupler_on_angle_arrays_stacks_per_angle_couplers(v_reflect):
    stack = coupler_matrices(COS, SIN, v_reflect)
    assert stack.shape == (3, 4, 4)
    for k in range(3):
        single = built("pbs" if v_reflect else "ppbs",
                       theta_h=float(ANGLES_H[k]), theta_v=float(ANGLES_V[k]))
        assert np.array_equal(stack[k], single.matrix)


def test_stacked_element_with_one_bad_slice_rejected():
    good = coupler_matrices(COS, SIN)
    with pytest.raises(ValueError, match=r"matrix shape \(3, 4, 4\) does not match 2 modes"):
        ElementMatrix(modes_for_ports(["a"]), good)
    with pytest.raises(ValueError, match="does not match"):
        ElementMatrix(AB, good)
    columns = [columns_of(AB, AB)]
    compose_circuit_matrix([good], columns, 4)
    bad = good.copy()
    bad[2, 0, 0] *= 1 + 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        compose_circuit_matrix([bad], columns, 4)
    bad[2, 0, 0] = math.nan
    with pytest.raises(ValueError, match="not unitary: nan"):
        compose_circuit_matrix([bad], columns, 4)


def test_compose_stack_equals_per_slice_composition():
    modes = modes_for_ports(["a", "b", "c"])
    plate, ppbs = wave_plate("b", "hadamard"), built("ppbs", ("a", "c"))
    matrices = [coupler_matrices(COS, SIN, True), plate.matrix,
                coupler_matrices(COS[:, ::-1], SIN[:, ::-1]), ppbs.matrix]
    columns = [columns_of(modes, modes_for_ports(ports))
               for ports in (["a", "b"], ["b"], ["b", "c"], ["a", "c"])]
    full = compose_circuit_matrix(matrices, columns, len(modes))
    assert full.shape == (3, 6, 6)
    for k in range(3):
        single = [
            built("pbs", ("a", "b"), theta_h=float(ANGLES_H[k]), theta_v=float(ANGLES_V[k])),
            plate,
            built("ppbs", ("b", "c"), theta_h=float(ANGLES_V[k]), theta_v=float(ANGLES_H[k])),
            ppbs,
        ]
        assert np.array_equal(full[k], compose(single, modes))


def test_coupler_fill_keeps_every_entry_and_its_sign():
    # entry by entry, as the fill read before it became three strided assignments
    rng = np.random.default_rng(3)
    bar = rng.choice([0.0, -0.0, 0.5, -1.0], size=(7, 3, 2))
    cross = rng.choice([0.0, -0.0, 0.25, 1.0], size=(7, 3, 2))
    reflect = np.array([True, False, True])
    sign = np.ones((3, 2))
    sign[:, 1] = np.where(reflect, -1.0, 1.0)
    want = np.zeros((7, 3, 4, 4), dtype=complex)
    want[..., [0, 1], [0, 1]] = bar
    want[..., [0, 1], [2, 3]] = cross
    want[..., [2, 3], [0, 1]] = -cross * sign
    want[..., [2, 3], [2, 3]] = bar * sign
    assert coupler_matrices(bar, cross, reflect).tobytes() == want.tobytes()


def test_compose_rows_are_those_rows_of_the_full_product():
    modes = modes_for_ports(["a", "b", "c"])
    matrices = [coupler_matrices(COS, SIN, True), wave_plate("b", "hadamard").matrix,
                coupler_matrices(COS[:, ::-1], SIN[:, ::-1])]
    columns = [columns_of(modes, modes_for_ports(ports)) for ports in (["a", "b"], ["b"], ["c", "a"])]
    full = compose_circuit_matrix(matrices, columns, len(modes))
    placements = [column_placement(idx) for idx in columns]
    assert placements[0] == slice(0, 4) and placements[2] is columns[2]
    assert compose_rows(matrices, placements, len(modes)).tobytes() == full.tobytes()
    for rows in ([4, 0, 3], [5], []):
        got = compose_rows(matrices, placements, len(modes), np.array(rows, dtype=int))
        assert got.tobytes() == full[:, rows].tobytes()


def test_compose_stack_rejects_one_non_unitary_slice():
    # slice 1 is a plate that passes the 1e-12 isometry check; its square does not
    a = (1 + 4.9e-13) / math.sqrt(2)
    matrices = np.stack([np.eye(2), [[a, a], [a, -a]], np.eye(2)]).astype(complex)
    columns = [columns_of(AB, modes_for_ports(["a"]))]
    assert compose_circuit_matrix([matrices], columns, 4).shape == (3, 4, 4)
    with pytest.raises(ValueError, match="not unitary"):
        compose_circuit_matrix([matrices, matrices], columns * 2, 4)


def test_compose_an_empty_stack_gives_no_circuit():
    empty = coupler_matrices(np.zeros((0, 2)), np.zeros((0, 2)), True)
    assert empty.shape == (0, 4, 4)
    plate = wave_plate("a", "hadamard")
    columns = [columns_of(AB, AB), columns_of(AB, plate.modes)]
    assert compose_circuit_matrix([empty, plate.matrix], columns, 4).shape == (0, 4, 4)


# -- conservation ---------------------------------------------------------------


def test_norm_preserved_by_lossless_elements():
    state = PureState(
        AB,
        {
            (1, 0, 1, 0): 0.5,
            (0, 1, 0, 1): 0.5,
            (2, 0, 0, 0): 0.5,
            (0, 0, 1, 1): 0.5,
        },
    )
    for el in (
        built("beamsplitter", t_h=R2, r_h=R2),
        built("ppbs"),
        wave_plate("a", "hwp1"),
        built("pbs"),
    ):
        out = apply_element(state, el)
        assert abs(norm_squared(out) - 1.0) < 1e-12


def test_photon_count_conserved_term_by_term():
    state = fock(AB, a_h=1, a_v=1, b_v=1)
    el = built("filter", ("a", "loss"), t_h=0.5, t_v=0.7)
    out = apply_element(state, el)
    assert len(out) > 1
    for vec, _ in out.items():
        assert sum(vec) == 3
    # filtering into explicit loss modes keeps the state normalized
    assert abs(norm_squared(out) - 1.0) < 1e-12


# -- cached tables -------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_permanents_from_cached_tables_equal_the_permutation_sum(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    got = permanents(stack)
    assert got.shape == (6,)
    for m, value in zip(stack, got):
        assert abs(value - permanent(m)) <= 1e-12 * max(1.0, abs(permanent(abs(m))))
    tables = _minor_tables(n)
    assert _minor_tables(n) is tables and len(tables) == n  # built once per n
    for subsets, smaller in tables:
        assert not subsets.flags.writeable and not smaller.flags.writeable
    assert permanents(stack).tobytes() == got.tobytes()


def _permanents_from_ones(a):
    """The expansion of `permanents` as it began before: a row of ones times the last row."""
    n = a.shape[-1]
    minors = np.ones(a.shape[:-2] + (1,), dtype=complex)
    for k, (subsets, smaller) in zip(reversed(range(n)), _minor_tables(n)):
        minors = (a[..., k, :][..., subsets] * minors[..., smaller]).sum(axis=-1)
    return minors[..., 0]


def test_permanents_of_no_rows_are_one_and_of_one_row_the_entry():
    assert permanents(np.zeros((3, 0, 0))).tolist() == [1, 1, 1]
    assert permanents(np.zeros((0, 0))) == 1 and permanents(np.zeros((0, 0))).dtype == complex
    entries = np.array([[[0.3 - 2.0j]], [[-1.5 + 0.25j]], [[complex(4.0, 0.0)]]])
    assert permanents(entries).tobytes() == entries[:, 0, 0].tobytes()
    # a zero part comes back +0.0, as from the sum that ends every longer expansion
    signed = _complex(np.array([-0.0, -0.0, 2.0]), np.array([-1.0, -0.0, -0.0]))[:, None, None]
    assert permanents(signed).tobytes() == np.array([complex(0.0, -1.0), 0.0, 2.0]).tobytes()
    assert permanents(np.array([[2.0]])).dtype == complex  # a real entry comes back complex


def _complex(real, imag):
    """A complex array with these parts, signed zeros kept (`real + 1j * imag` loses them)."""
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _routing_blocks(n):
    """Every n x n submatrix of the nominal routing PBS, whose zeros carry both signs."""
    pbs = coupler_matrices(np.array([1.0, 0.0]), np.array([0.0, 1.0]), True)
    picks = list(itertools.combinations(range(4), n))
    return np.array([pbs[np.ix_(rows, cols)] for rows in picks for cols in picks])


@pytest.mark.parametrize("n", range(1, 5))
def test_permanents_from_the_last_row_equal_the_ones_expansion_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    stack = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
    assert permanents(stack).tobytes() == _permanents_from_ones(stack).tobytes()
    real = rng.normal(size=(50, n, n))
    assert permanents(real).tobytes() == _permanents_from_ones(real).tobytes()
    # exact zeros of both signs in either part, where a sign could show
    parts = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0], size=(2, 2000, n, n))
    zeros = _complex(parts[0], parts[1])
    assert (zeros.real == 0).any() and np.signbit(zeros.real[zeros.real == 0]).any()
    assert permanents(zeros).tobytes() == _permanents_from_ones(zeros).tobytes()
    routing = _routing_blocks(n)
    assert np.signbit(routing.real[routing.real == 0]).any()
    assert permanents(routing).tobytes() == _permanents_from_ones(routing).tobytes()


@pytest.mark.parametrize("n, k", [(0, 1), (1, 4), (2, 2), (3, 4), (4, 3)])
def test_weighted_compositions_keep_the_order_and_multinomials(n, k):
    table = _weighted_compositions(n, k)
    assert [split for split, _ in table] == list(_compositions(n, k))
    assert [weight for _, weight in table] == [complex(_multinomial(n, s)) for s, _ in table]
    assert sum(w.real for _, w in table) == k ** n  # the multinomial theorem
    assert _weighted_compositions(n, k) is table
    assert all(sum(split) == n and len(split) == k for split, _ in table)
    assert len(table) == len(set(split for split, _ in table)) == math.comb(n + k - 1, k - 1)


def test_apply_element_appends_new_modes_in_element_order():
    state = fock(AB, a_h=1, b_v=1)
    out = apply_element(state, built("filter", ("b", "loss"), t_h=0.6, t_v=0.8))
    assert out.modes == AB + modes_for_ports(["loss"])
    again = apply_element(out, built("beamsplitter", ("loss", "a"), t_h=R2, r_h=R2))
    assert again.modes == out.modes  # no mode is added twice
    assert abs(norm_squared(again) - 1.0) < 1e-12
