import math

import numpy as np
import pytest

from fockgate.fock import H, V, Mode, PureState, modes_for_ports, norm_squared
from fockgate.elements import (
    HADAMARD_MATRIX,
    ElementMatrix,
    HWP1_MATRIX,
    amplitude_via_permanent,
    apply_element,
    attenuating_filter,
    beam_splitter,
    compose_circuit_matrix,
    coupler,
    mode_columns,
    partially_polarizing_beam_splitter,
    permanent,
    phase_shift,
    polarizing_beam_splitter,
    rotator_from_conversion,
    wave_plate,
)

AB = modes_for_ports(["a", "b"])
R2 = 1 / math.sqrt(2)


def fock(modes, **occ):
    vec = [0] * len(modes)
    for key, n in occ.items():
        port, pol = key.split("_")
        vec[list(modes).index(Mode(port, H if pol == "h" else V))] = n
    return PureState(modes, {tuple(vec): 1.0})


def compose(elements, modes):
    """compose_circuit_matrix with each element's columns resolved from its modes."""
    columns = [mode_columns(modes, el.modes) for el in elements]
    return compose_circuit_matrix([el.matrix for el in elements], columns, len(modes))


# -- element construction ----------------------------------------------------


def test_ppbs_default_block():
    el = partially_polarizing_beam_splitter("a", "b")
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
        beam_splitter("a", "b", t_h=0.9, r_h=0.9)


def test_filter_amplitude_range_checked():
    with pytest.raises(ValueError, match="outside"):
        attenuating_filter("a", "loss", t_h=1.2, t_v=1.0)


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
    el = attenuating_filter("a", "loss", t_h=1.0, t_v=1.0)
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
    ideal = polarizing_beam_splitter("a", "b")
    nominal = coupler("a", "b", theta_h=0.0, theta_v=math.pi / 2, v_reflect=True)
    assert np.allclose(ideal.matrix, nominal.matrix, atol=1e-15)


# -- single-photon routing -----------------------------------------------------


def test_bs_single_photon_rotation_convention():
    bs = beam_splitter("a", "b", t_h=R2, r_h=R2)
    out = apply_element(fock(AB, a_h=1), bs)
    assert abs(out.amplitude((1, 0, 0, 0)) - R2) < 1e-15
    assert abs(out.amplitude((0, 0, 1, 0)) - R2) < 1e-15


def test_pbs_routing():
    pbs = polarizing_beam_splitter("a", "b")
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
    bs = beam_splitter("a", "b", t_h=R2, r_h=R2)
    both = fock(AB, a_h=1, b_h=1)
    out = apply_element(both, bs)
    # coincidence amplitude t^2 - r^2 = 0
    assert abs(out.amplitude((1, 0, 1, 0))) < 1e-15
    # photons bunch: |2,0> and |0,2> with amplitude +-1/sqrt2
    assert abs(abs(out.amplitude((2, 0, 0, 0))) - R2) < 1e-15
    assert abs(abs(out.amplitude((0, 0, 2, 0))) - R2) < 1e-15


def test_ppbs_two_v_coincidence_is_minus_third():
    ppbs = partially_polarizing_beam_splitter("a", "b")
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
        partially_polarizing_beam_splitter("a", "b"),
        beam_splitter("a", "b", t_h=0.6, r_h=0.8),
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
    pbs = polarizing_beam_splitter("a", "b")
    full = compose([pbs], AB)
    assert np.allclose(full, pbs.matrix)


def test_compose_unresolved_port_rejected():
    pbs = polarizing_beam_splitter("a", "zz")
    with pytest.raises(KeyError, match="zz"):
        compose([pbs], AB)


@pytest.mark.parametrize("columns", [[0, 1, 2], [0, 1, 2, 4], [-1, 1, 2, 3]])
def test_compose_rejects_columns_that_do_not_place_the_element(columns):
    pbs = polarizing_beam_splitter("a", "b")
    with pytest.raises(ValueError, match="do not place"):
        compose_circuit_matrix([pbs.matrix], [np.array(columns)], 4)


def test_compose_places_each_element_on_its_columns():
    # the PBS acts on modes (bH, bV, aH, aV) of the (a, b) circuit
    pbs = polarizing_beam_splitter("b", "a")
    full = compose_circuit_matrix([pbs.matrix], [np.array([2, 3, 0, 1])], 4)
    assert np.array_equal(full, compose([pbs], AB))
    assert np.array_equal(full[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])], pbs.matrix)


def test_mode_columns_index_the_modes_read_only():
    cols = mode_columns(AB, modes_for_ports(["b", "a"]))
    assert cols.tolist() == [2, 3, 0, 1]
    with pytest.raises(ValueError, match="read-only"):
        cols[0] = 1


# -- stacked (batched) element matrices -----------------------------------------

ANGLES_H = np.array([0.0, 0.3, -1.1])
ANGLES_V = np.array([math.pi / 2, 1.2, 0.4])


def test_rotation_coupler_is_beam_splitter_of_cos_and_sin():
    rot = coupler("a", "b", theta_h=0.3, theta_v=1.2)
    bs = beam_splitter("a", "b", t_h=math.cos(0.3), r_h=math.sin(0.3),
                       t_v=math.cos(1.2), r_v=math.sin(1.2))
    assert np.array_equal(rot.matrix, bs.matrix)


@pytest.mark.parametrize("v_reflect", [False, True])
def test_coupler_on_angle_arrays_stacks_per_angle_couplers(v_reflect):
    stack = coupler("a", "b", ANGLES_H, ANGLES_V, v_reflect=v_reflect)
    assert stack.matrix.shape == (3, 4, 4)
    for k in range(3):
        single = coupler("a", "b", float(ANGLES_H[k]), float(ANGLES_V[k]), v_reflect=v_reflect)
        assert np.array_equal(stack.matrix[k], single.matrix)


def test_stacked_element_with_one_bad_slice_rejected():
    good = coupler("a", "b", ANGLES_H, ANGLES_V).matrix
    ElementMatrix(AB, good)
    bad = good.copy()
    bad[2, 0, 0] *= 1 + 1e-9
    with pytest.raises(ValueError, match="not an isometry"):
        ElementMatrix(AB, bad)
    bad[2, 0, 0] = math.nan
    with pytest.raises(ValueError, match="not an isometry"):
        ElementMatrix(AB, bad)


def test_compose_stack_equals_per_slice_composition():
    modes = modes_for_ports(["a", "b", "c"])
    stacked = [
        coupler("a", "b", ANGLES_H, ANGLES_V, v_reflect=True),
        wave_plate("b", "hadamard"),
        coupler("b", "c", ANGLES_V, ANGLES_H),
        partially_polarizing_beam_splitter("a", "c"),
    ]
    full = compose(stacked, modes)
    assert full.shape == (3, 6, 6)
    for k in range(3):
        single = [
            coupler("a", "b", float(ANGLES_H[k]), float(ANGLES_V[k]), v_reflect=True),
            stacked[1],
            coupler("b", "c", float(ANGLES_V[k]), float(ANGLES_H[k])),
            stacked[3],
        ]
        assert np.array_equal(full[k], compose(single, modes))


def test_compose_stack_rejects_one_non_unitary_slice():
    # slice 1 is a plate that passes the 1e-12 isometry check; its square does not
    a = (1 + 4.9e-13) / math.sqrt(2)
    matrices = np.stack([np.eye(2), [[a, a], [a, -a]], np.eye(2)]).astype(complex)
    plate = ElementMatrix(modes_for_ports(["a"]), matrices)
    assert compose([plate], AB).shape == (3, 4, 4)
    with pytest.raises(ValueError, match="not unitary"):
        compose([plate, plate], AB)


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
        beam_splitter("a", "b", t_h=R2, r_h=R2),
        partially_polarizing_beam_splitter("a", "b"),
        wave_plate("a", "hwp1"),
        polarizing_beam_splitter("a", "b"),
    ):
        out = apply_element(state, el)
        assert abs(norm_squared(out) - 1.0) < 1e-12


def test_photon_count_conserved_term_by_term():
    state = fock(AB, a_h=1, a_v=1, b_v=1)
    el = attenuating_filter("a", "loss", t_h=0.5, t_v=0.7)
    out = apply_element(state, el)
    assert len(out) > 1
    for vec, _ in out.items():
        assert sum(vec) == 3
    # filtering into explicit loss modes keeps the state normalized
    assert abs(norm_squared(out) - 1.0) < 1e-12
