"""Optical elements as single-photon mode transformations.

An element is unitary on its modes, stored in transfer orientation:
matrix[i, j] is the amplitude from mode i to mode j, so a creation
operator maps as

    a_i  ->  sum_j matrix[i, j] a_j

Losses are never silent: filters are completed into full couplers that
route rejected amplitude into dedicated loss modes, so every element in
a circuit is exactly unitary on its mode set and probability bookkeeping
stays closed.

Conventions (fixed circuit-wide):
  * BeamSplitter per polarization: rotation [[t, r], [-r, t]].
  * PBS: routing unitary; H passes straight, V swaps ports with
    amplitude +1 on both crossings.
  * Coupler from angles (`coupler`): bar amplitude cos(theta); H block in
    rotation form, V block in rotation or (PBS) reflection form.
  * PPBS: rotation form on the V modes, [[t, r], [-r, t]] with
    t = 1/sqrt(3) by default; H modes untouched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fock import V, Mode, Polarization, PureState, FockVector, PRUNE_THRESHOLD, modes_for_ports

SQ3 = math.sqrt(3.0)

# HWP1 maps V -> (1/2)H + (sqrt3/2)V; the H column is the det = -1
# wave-plate completion (no H amplitude ever reaches it in the gate).
HWP1_MATRIX = np.array(
    [[-SQ3 / 2, 0.5], [0.5, SQ3 / 2]], dtype=complex
)

# Hadamard-form plate: H -> (H+V)/sqrt2, V -> (H-V)/sqrt2.
HADAMARD_MATRIX = np.array(
    [[1, 1], [1, -1]], dtype=complex
) / math.sqrt(2.0)

# (bar_h, bar_v) of the default PPBS: unit H and 1/sqrt3 V, whose
# two-V-photon coincidence amplitude is t^2 - r^2 = -1/3.
PPBS_BARS = (1.0, 1.0 / SQ3)

WAVEPLATE_PRESETS = {
    "hwp1": HWP1_MATRIX,
    "hadamard": HADAMARD_MATRIX,
}


@dataclass(frozen=True)
class ElementMatrix:
    """Unitary on its modes.

    matrix has shape (..., len(modes), len(modes)) in transfer
    orientation, mapping the modes onto themselves: a leading batch shape
    makes it a stack of matrices, one per point of a sweep.  The rows of
    every matrix in the stack are orthonormal within 1e-12.
    """

    modes: tuple[Mode, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (len(self.modes),) * 2:
            raise ValueError(f"matrix shape {m.shape} does not match {len(self.modes)} modes")
        _check_isometry(m, "element is not an isometry: deviation {:.3g}")
        object.__setattr__(self, "matrix", m)


def _check_isometry(m: np.ndarray, message: str) -> None:
    """Raise ValueError unless every matrix of the stack `m` has orthonormal rows.

    The bound is 1e-12 on each entry of m m^dag - 1; a NaN entry fails it.
    `message` is formatted with the deviation of the first failing matrix.
    """
    dev = np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-2]))
    if dev.max() <= 1e-12:
        return
    worst = dev.max(axis=(-2, -1))
    raise ValueError(message.format(worst[~(worst <= 1e-12)][0]))


def _two_port(port_a: str, port_b: str, h_block, v_block) -> ElementMatrix:
    """Two-port element on the modes (aH, aV, bH, bV) from its H and V 2x2 blocks.

    The H block acts on modes 0 and 2, the V block on modes 1 and 3.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[::2, ::2] = h_block
    m[1::2, 1::2] = v_block
    return ElementMatrix(modes_for_ports((port_a, port_b)), m)


def beam_splitter(
    port_a: str,
    port_b: str,
    t_h: float,
    r_h: float,
    t_v: float | None = None,
    r_v: float | None = None,
) -> ElementMatrix:
    """Two-port coupler, rotation convention [[t, r], [-r, t]] per polarization.

    t is the bar (stay) amplitude, r the cross amplitude; t^2 + r^2 must
    equal 1 for each polarization.
    """
    if t_v is None:
        t_v = t_h
    if r_v is None:
        r_v = r_h
    for t, r, pol in ((t_h, r_h, "H"), (t_v, r_v, "V")):
        if abs(t * t + r * r - 1.0) > 1e-12:
            raise ValueError(f"{pol} amplitudes violate t^2 + r^2 = 1: t={t}, r={r}")
    return _two_port(port_a, port_b, ((t_h, r_h), (-r_h, t_h)), ((t_v, r_v), (-r_v, t_v)))


def polarizing_beam_splitter(port_a: str, port_b: str) -> ElementMatrix:
    """Ideal PBS routing unitary: H bar-passes, V cross-passes (amplitude +1)."""
    return _two_port(port_a, port_b, ((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0)))


def coupler(
    port_a: str,
    port_b: str,
    theta_h: float | np.ndarray,
    theta_v: float | np.ndarray,
    v_reflect: bool = False,
) -> ElementMatrix:
    """Two-port coupler given by its coupling angles; the bar amplitude is cos(theta).

    The H block is in rotation form [[c, s], [-s, c]] (identity at
    theta_h = 0).  The V block is in rotation form too, or with `v_reflect`
    in reflection form [[c, s], [s, -c]], the symmetric swap at
    theta_v = pi/2 that makes the routing PBS.  The angles are floats or
    arrays of one shape S, which give a stack of shape S + (4, 4).
    """
    thetas = np.stack(np.broadcast_arrays(
        np.asarray(theta_h, dtype=float), np.asarray(theta_v, dtype=float)
    ), axis=-1)
    return ElementMatrix(modes_for_ports((port_a, port_b)), coupler_matrices(thetas, v_reflect))


def coupler_matrices(thetas: np.ndarray, v_reflect: bool | np.ndarray = False) -> np.ndarray:
    """Coupler matrices (S + (4, 4)) on the modes (aH, aV, bH, bV) from angles S + (2,).

    The last axis of `thetas` is (theta_h, theta_v).  The H block acts on
    modes 0 and 2, the V block on modes 1 and 3, in the forms `coupler`
    describes; `v_reflect` (a bool, or bools that broadcast against S)
    picks the reflection form.  The matrices are unitary for every finite
    angle and are not checked here.
    """
    cos, sin = np.cos(thetas), np.sin(thetas)
    sign = np.ones(np.shape(v_reflect) + (2,))
    sign[..., 1] = np.where(v_reflect, -1.0, 1.0)  # the lower row of a reflection V block
    m = np.zeros(thetas.shape[:-1] + (4, 4), dtype=complex)
    upper, lower = [0, 1], [2, 3]  # the (aH, aV) and (bH, bV) modes
    m[..., upper, upper] = cos
    m[..., upper, lower] = sin
    m[..., lower, upper] = -sin * sign
    m[..., lower, lower] = cos * sign
    return m


def _bar_coupler(port_a: str, port_b: str, bar_h: float, bar_v: float, what: str) -> ElementMatrix:
    """Rotation-form coupler from bar amplitudes in [0, 1]; `what` names them in errors."""
    for bar, pol in ((bar_h, "H"), (bar_v, "V")):
        if not (0.0 <= bar <= 1.0):
            raise ValueError(f"{what.format(pol)} amplitude {bar} outside [0, 1]")
    cross_h = math.sqrt(max(0.0, 1.0 - bar_h * bar_h))
    cross_v = math.sqrt(max(0.0, 1.0 - bar_v * bar_v))
    return beam_splitter(port_a, port_b, t_h=bar_h, r_h=cross_h, t_v=bar_v, r_v=cross_v)


def partially_polarizing_beam_splitter(
    port_a: str, port_b: str, bar_h: float = PPBS_BARS[0], bar_v: float = PPBS_BARS[1]
) -> ElementMatrix:
    """PPBS: per-polarization rotation with bar amplitudes (bar_h, bar_v).

    The default is `PPBS_BARS`, whose two-V-photon coincidence amplitude
    is -1/3.
    """
    return _bar_coupler(port_a, port_b, bar_h, bar_v, "PPBS bar {}")


def attenuating_filter(
    port: str, loss_port: str, t_h: float, t_v: float
) -> ElementMatrix:
    """Per-polarization amplitude filter; rejected light goes to `loss_port`.

    Implemented as a coupler into the loss port, so the element is a full
    unitary and photon number stays exact with losses explicit.
    """
    return _bar_coupler(port, loss_port, t_h, t_v, "filter {} transmission")


def wave_plate(port: str, matrix: np.ndarray | str) -> ElementMatrix:
    """2x2 unitary on the (H, V) modes of one port.

    `matrix` may be a preset name ('hwp1', 'hadamard') or an explicit
    2x2 array in transfer orientation (rows H, V in; columns H, V out).
    """
    if isinstance(matrix, str):
        try:
            m = WAVEPLATE_PRESETS[matrix]
        except KeyError:
            raise ValueError(f"unknown wave plate preset {matrix!r}") from None
    else:
        m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"wave plate matrix must be 2x2, got {m.shape}")
    return ElementMatrix(modes_for_ports((port,)), m)


def phase_shift(port: str, phase_h: float = 0.0, phase_v: float = 0.0) -> ElementMatrix:
    """Diagonal phase on the (H, V) modes of one port."""
    m = np.diag([np.exp(1j * phase_h), np.exp(1j * phase_v)]).astype(complex)
    return ElementMatrix(modes_for_ports((port,)), m)


def rotator_from_conversion(
    port: str, conversion: float, input_pol: Polarization | None = None
) -> ElementMatrix:
    """Polarization rotator converting power fraction `conversion` out of
    `input_pol` into the orthogonal polarization.

    Matrix form on (input_pol, other):  [[sqrt(1-c), sqrt(c)],
                                         [sqrt(c), -sqrt(1-c)]]
    which reproduces the HWP presets at c = 1/4 (V input) and c = 1/2.
    """
    if not (0.0 <= conversion <= 1.0):
        raise ValueError(f"conversion fraction {conversion} outside [0, 1]")
    if input_pol is None:
        input_pol = V
    keep = math.sqrt(1.0 - conversion)
    flip = math.sqrt(conversion)
    w = np.array([[keep, flip], [flip, -keep]], dtype=complex)
    if input_pol is V:
        # reorder to canonical (H, V) in/out
        perm = np.array([[0, 1], [1, 0]], dtype=complex)
        w = perm @ w @ perm
    return wave_plate(port, w)


def apply_element(state: PureState, element: ElementMatrix) -> PureState:
    """Apply the exact bosonic substitution a_i -> sum_j M[i,j] a_j on the element's modes.

    Element modes not yet present in the state are appended in vacuum
    (this is how filter loss modes enter).  The expansion is the exact
    multinomial one; photon number is conserved term by term and norm is
    preserved for unitary elements.
    """
    modes = list(state.modes)
    new_modes = modes + [m for m in element.modes if m not in modes]
    idx = [new_modes.index(m) for m in element.modes]
    pad = len(new_modes) - len(modes)

    terms: dict[FockVector, complex] = {}
    for orig_vec, amp in state.items():
        vec = orig_vec + (0,) * pad
        base = list(vec)
        ns = []
        for i in idx:
            ns.append(base[i])
            base[i] = 0
        prefactor = amp / math.sqrt(_prod_fact(ns))
        expansions: list[tuple[FockVector, complex]] = [(tuple(base), prefactor)]
        for row_pos, n in enumerate(ns):
            if n == 0:
                continue
            expansions = _expand_power(
                expansions, element.matrix[row_pos], idx, n
            )
        for out_vec, coeff in expansions:
            total = coeff * math.sqrt(_prod_fact(out_vec[j] for j in idx))
            terms[out_vec] = terms.get(out_vec, 0.0) + total
    kept = {k: v for k, v in terms.items() if abs(v) >= PRUNE_THRESHOLD}
    return PureState(new_modes, kept, subnormalized=state.subnormalized)


def _prod_fact(ns: Iterable[int]) -> float:
    p = 1
    for n in ns:
        p *= math.factorial(n)
    return float(p)


def _expand_power(
    expansions: list[tuple[FockVector, complex]],
    row: np.ndarray,
    out_idx: Sequence[int],
    n: int,
) -> list[tuple[FockVector, complex]]:
    """Multiply expansion terms by (sum_j row[j] a_out,j)^n via the multinomial."""
    results: dict[FockVector, complex] = {}
    k = len(out_idx)
    for split in _compositions(n, k):
        weight = complex(_multinomial(n, split))
        for j, c in enumerate(split):
            if c:
                weight *= row[j] ** c
        if weight == 0:
            continue
        for vec, amp in expansions:
            new = list(vec)
            for j, c in enumerate(split):
                new[out_idx[j]] += c
            key = tuple(new)
            results[key] = results.get(key, 0.0) + amp * weight
    return list(results.items())


def _compositions(n: int, k: int):
    """All ways to write n as an ordered sum of k non-negative integers."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _multinomial(n: int, split: Sequence[int]) -> int:
    num = math.factorial(n)
    for c in split:
        num //= math.factorial(c)
    return num


def permanent(matrix: np.ndarray) -> complex:
    """Permanent by direct permutation sum; intended for n <= 4."""
    m = np.asarray(matrix)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("permanent requires a square matrix")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= m[i, j]
        total += p
    return complex(total)


def permanents(matrices: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices, shape (..., n, n) -> (...).

    Expansion by minors, from the last row up and shared across column
    subsets: after row k, `minors[..., s]` holds the permanent of rows
    k..n-1 on the columns of subset s, the sum over j in s of A[k, j]
    times the minor of s without j.  That is O(n 2^n) products per
    matrix, evaluated with array arithmetic over the whole stack; n = 0
    gives 1.  Every partial sum is a sum of products of entries, so the
    rounding error stays relative to perm(|A|), which the signed sums of
    Glynn's and Ryser's formulas do not guarantee.  It shares no code with
    `permanent`, which stays the permutation-sum reference.
    """
    a = np.asarray(matrices)
    n = a.shape[-1] if a.ndim >= 2 else -1
    if n < 0 or a.shape[-2] != n:
        raise ValueError(f"permanents requires (..., n, n) matrices, got {a.shape}")
    minors = np.ones(a.shape[:-2] + (1,), dtype=complex)
    position = {(): 0}
    for k in reversed(range(n)):
        subsets = list(itertools.combinations(range(n), n - k))
        smaller = [[position[s[:i] + s[i + 1 :]] for i in range(n - k)] for s in subsets]
        row = a[..., k, :][..., np.array(subsets)]
        minors = (row * minors[..., np.array(smaller)]).sum(axis=-1)
        position = {s: i for i, s in enumerate(subsets)}
    return minors[..., 0]


def amplitude_via_permanent(
    unitary: np.ndarray, input_vec: FockVector, output_vec: FockVector
) -> complex:
    """Transition amplitude through a full mode matrix, via the permanent.

    With the transfer convention a_in,i -> sum_j U[i,j] a_out,j the
    amplitude from occupations n to occupations m is
    perm(U[rows repeated n_i times, cols repeated m_j times]) divided by
    sqrt(prod n_i! prod m_j!).  Serves as an independent oracle against
    sequential apply_element; photon totals must match and be <= 4.
    """
    n_in = sum(input_vec)
    n_out = sum(output_vec)
    if n_in != n_out:
        raise ValueError(f"photon totals differ: input {n_in} vs output {n_out}")
    if n_in > 4:
        raise ValueError("permanent oracle limited to <= 4 photons")
    rows = [i for i, n in enumerate(input_vec) for _ in range(n)]
    cols = [j for j, n in enumerate(output_vec) for _ in range(n)]
    sub = np.asarray(unitary)[np.ix_(rows, cols)]
    norm = math.sqrt(_prod_fact(input_vec) * _prod_fact(output_vec))
    return permanent(sub) / norm


def compose_circuit_matrix(
    matrices: Sequence[np.ndarray], columns: Sequence[np.ndarray], n_modes: int
) -> np.ndarray:
    """Product of element matrices, each acting on its own columns of an n_modes-mode circuit.

    `matrices` are the elements' matrices (an `ElementMatrix.matrix` or a
    stack of them) in application order, and `columns[k]` holds the
    circuit columns of the modes of element k, in the element's mode order
    (a netlist resolves them once, see `gate.Netlist.steps`).  In transfer
    orientation the composite is M1 @ M2 @ ... @ Mk, with each Mi the
    identity outside its element's columns, multiplied left to right.  An
    element maps its modes onto themselves, so each step rewrites only
    those columns.  A column list of the wrong length or outside
    [0, n_modes) raises ValueError.  Stacked matrices broadcast: the result
    has shape B + (n, n), with B the common batch shape of the matrices
    (empty when none is stacked), and every matrix in it is unitary within
    1e-12.
    """
    if len(matrices) != len(columns):
        raise ValueError(f"{len(matrices)} elements but {len(columns)} column lists")
    batch = np.broadcast_shapes(*{m.shape[:-2] for m in matrices})
    # the identity, broadcast to the batch shape
    full = np.eye(n_modes, dtype=complex) + np.zeros(batch + (n_modes, n_modes), dtype=complex)
    for m, idx in zip(matrices, columns):
        k, cols = m.shape[-1], np.asarray(idx).tolist()
        if len(cols) != k or not all(0 <= c < n_modes for c in cols):
            raise ValueError(
                f"columns {cols} do not place the {k} modes of an "
                f"element in a {n_modes}-mode circuit"
            )
        # consecutive columns are read and written through a view
        at = slice(cols[0], cols[0] + k) if cols == list(range(cols[0], cols[0] + k)) else idx
        block = full[..., at]
        if m.ndim == 2 and block.ndim > 2:  # one matrix for the whole stack: one product
            full[..., at] = (block.reshape(-1, k) @ m).reshape(block.shape)
        else:
            full[..., at] = block @ m
    _check_isometry(full, "composed circuit matrix is not unitary: {:.3g}")
    return full


def mode_columns(modes: Sequence[Mode], subset: Sequence[Mode]) -> np.ndarray:
    """Indices of the modes of `subset` within `modes`, as a read-only array.

    A mode of `subset` that `modes` lacks raises KeyError naming it.
    """
    position = {m: i for i, m in enumerate(modes)}
    missing = [m for m in subset if m not in position]
    if missing:
        raise KeyError(f"unresolved port: mode {missing[0]!r} not in circuit mode set")
    idx = np.array([position[m] for m in subset], dtype=np.intp)
    idx.flags.writeable = False
    return idx
