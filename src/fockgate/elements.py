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
  * Every two-port coupler (PBS, PPBS, filter, beam splitter) is filled
    by `coupler_matrices` from a (bar, cross) amplitude pair per
    polarization: H block in rotation form [[bar, cross], [-cross, bar]],
    V block in rotation form, or for a PBS in reflection form
    [[bar, cross], [cross, -bar]].
  * From angles (a coupler spec that sets `theta_h`/`theta_v`, or a
    sweep's perturbed couplers), the pair is (cos(theta), sin(theta)).
  * Nominal couplers take exact pairs (`gate.build_element`): the
    routing PBS (1, 0) for H and (0, 1) for V, so H passes straight and
    V swaps ports with amplitude +1 on both crossings; a PPBS or filter
    (bar, sqrt(1 - bar^2)), the default PPBS bar 1/sqrt(3) on V and 1
    on H; a beam splitter its (t, r).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .fock import V, Mode, Polarization, modes_for_ports
# perfbench/tracer.py reads and wraps these two names here (ROADMAP item 1a)
from .reference import amplitude_via_permanent, apply_element

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
HWP1_MATRIX.flags.writeable = HADAMARD_MATRIX.flags.writeable = False

# (bar_h, bar_v) of the default PPBS: unit H and 1/sqrt3 V, whose
# two-V-photon coincidence amplitude is t^2 - r^2 = -1/3.
PPBS_BARS = (1.0, 1.0 / SQ3)

WAVEPLATE_PRESETS = MappingProxyType({
    "hwp1": HWP1_MATRIX,
    "hadamard": HADAMARD_MATRIX,
})


@dataclass(frozen=True)
class ElementMatrix:
    """Unitary on its modes; an immutable value.

    matrix is one (len(modes), len(modes)) matrix in transfer orientation,
    mapping the modes onto themselves, with rows orthonormal within 1e-12:
    the element's own read-only copy of the array it was given, so neither a
    later write into that array nor one into `matrix` (ValueError) changes it.
    A pickle or a copy is made as the element was, so it is read-only too.
    """

    modes: tuple[Mode, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (len(self.modes),) * 2:
            raise ValueError(f"matrix shape {m.shape} does not match {len(self.modes)} modes")
        _check_isometry(m, "element is not an isometry: deviation {:.3g}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        return (ElementMatrix, (self.modes, self.matrix))


def _check_isometry(m: np.ndarray, message: str) -> None:
    """Raise ValueError unless every matrix of the stack `m` has orthonormal rows.

    The bound is 1e-12 on each entry of m m^dag - 1; a NaN entry fails it,
    and an empty stack passes.  `message` is formatted with the deviation
    of the first failing matrix.
    """
    dev = np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-2]))
    if dev.max(initial=0.0) <= 1e-12:
        return
    worst = dev.max(axis=(-2, -1))
    raise ValueError(message.format(worst[~(worst <= 1e-12)][0]))


def isometry_deviation(m: np.ndarray) -> float:
    """||m m^dag - 1||_F of one square matrix, a bound on the spectral norm of m m^dag - 1."""
    dev = m @ m.conj().T - np.eye(len(m))
    return math.sqrt(float((dev.real**2 + dev.imag**2).sum()))


def coupler_matrices(
    bar: np.ndarray, cross: np.ndarray, v_reflect: bool | np.ndarray = False
) -> np.ndarray:
    """Coupler matrices (S + (4, 4)) on the modes (aH, aV, bH, bV) from (bar, cross) pairs.

    `bar` and `cross` (S + (2,)) hold the bar (stay) and cross amplitudes
    of each coupler, H then V on the last axis.  The H block acts on
    modes 0 and 2 in rotation form [[bar, cross], [-cross, bar]]; the V
    block acts on modes 1 and 3 in rotation form too, or, where
    `v_reflect` (a bool, or bools that broadcast against S) is set, in
    reflection form [[bar, cross], [cross, -bar]].  This is the only fill
    of a coupler's matrix: angles enter as (cos, sin) pairs, nominal
    couplers as exact ones.  The 16 entries of each matrix are filled as
    one flat row, each of the diagonal, the upper and the lower crossings
    by one strided assignment.  A pair with bar^2 + cross^2 = 1 gives a
    unitary; nothing is checked here.
    """
    sign = np.ones(np.shape(v_reflect) + (2,))
    sign[..., 1] = np.where(v_reflect, -1.0, 1.0)  # the lower row of a reflection V block
    m = np.zeros(np.shape(bar)[:-1] + (16,), dtype=complex)
    m[..., 0::5] = np.concatenate((bar, bar * sign), axis=-1)  # the diagonal
    m[..., 2:8:5] = cross  # from (aH, aV) to (bH, bV)
    m[..., 8:14:5] = -cross * sign  # from (bH, bV) to (aH, aV)
    return m.reshape(m.shape[:-1] + (4, 4))


def wave_plate(port: str, matrix: np.ndarray | Sequence[Sequence[complex]]) -> ElementMatrix:
    """2x2 unitary `matrix` on the (H, V) modes of one port.

    The matrix is in transfer orientation (rows H, V in; columns H, V
    out), such as a value of WAVEPLATE_PRESETS; `ElementMatrix` refuses
    one of another shape or one that is not unitary.
    """
    return ElementMatrix(modes_for_ports((port,)), matrix)


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


def permanents(matrices: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices, shape (..., n, n) -> (...).

    Expansion by minors, from the last row up and shared across column
    subsets: after row k, `minors[..., s]` holds the permanent of rows
    k..n-1 on the columns of subset s, the sum over j in s of A[k, j]
    times the minor of s without j.  The last row's entries are its 1 x 1
    minors, so the expansion starts from that row itself, as complex
    numbers.  That is O(n 2^n) products per matrix, evaluated with array
    arithmetic over the whole stack; the subset and minor index tables are
    built once per n (`_minor_tables`), not on every call, and n = 0 gives
    1.  Every partial sum is a sum of products of entries, so the rounding
    error stays relative to perm(|A|), which the signed sums of Glynn's
    and Ryser's formulas do not guarantee.  It shares no code with
    `reference.permanent`, the permutation-sum reference.
    """
    a = np.asarray(matrices)
    n = a.shape[-1] if a.ndim >= 2 else -1
    if n < 0 or a.shape[-2] != n:
        raise ValueError(f"permanents requires (..., n, n) matrices, got {a.shape}")
    if n == 0:
        return np.ones(a.shape[:-2], dtype=complex)
    # the last row's 1 x 1 permanents; adding 0 makes a zero part +0.0, as every sum does
    minors = np.add(a[..., n - 1, :], 0.0, dtype=complex)
    for k, (subsets, smaller) in zip(reversed(range(n - 1)), _minor_tables(n)[1:]):
        minors = (a[..., k, :][..., subsets] * minors[..., smaller]).sum(axis=-1)
    return minors[..., 0]


@lru_cache(maxsize=32)
def _minor_tables(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The index tables of `permanents` for n x n matrices, one pair per row from the last up.

    For row k, `subsets` lists the column subsets of size n - k in
    lexicographic order, and `smaller[s, i]` is the position, among the
    subsets of the row below, of subset s without its i-th column.  Both
    are read-only.
    """
    tables = []
    position = {(): 0}
    for k in reversed(range(n)):
        subsets = list(itertools.combinations(range(n), n - k))
        smaller = [[position[s[:i] + s[i + 1 :]] for i in range(n - k)] for s in subsets]
        pair = (np.array(subsets), np.array(smaller))
        for table in pair:
            table.flags.writeable = False
        tables.append(pair)
        position = {s: i for i, s in enumerate(subsets)}
    return tuple(tables)


def compose_circuit_matrix(
    matrices: Sequence[np.ndarray], columns: Sequence[np.ndarray], n_modes: int
) -> np.ndarray:
    """Product of element matrices, each acting on its own columns of an n_modes-mode circuit.

    `matrices` are the elements' matrices in application order (an
    `ElementMatrix.matrix`, or a stack of one element's matrices), and
    `columns[k]` holds the circuit columns of the modes of element k, in
    the element's mode order.  In transfer orientation the composite is
    M1 @ M2 @ ... @ Mk, with each Mi the identity outside its element's
    columns, multiplied left to right.  Stacked matrices broadcast: the
    result has shape B + (n, n), with B the common batch shape of the
    matrices (empty when none is stacked).

    Checks, then core: a column list of the wrong length or outside
    [0, n_modes) raises ValueError, and so does a result that is not
    unitary within 1e-12; `compose_rows` does the arithmetic.  A netlist
    places its columns once (`gate.Netlist.steps`) and calls the core
    itself.
    """
    if len(matrices) != len(columns):
        raise ValueError(f"{len(matrices)} elements but {len(columns)} column lists")
    for m, idx in zip(matrices, columns):
        k, cols = m.shape[-1], np.asarray(idx).tolist()
        if len(cols) != k or not all(0 <= c < n_modes for c in cols):
            raise ValueError(
                f"columns {cols} do not place the {k} modes of an "
                f"element in a {n_modes}-mode circuit"
            )
    full = compose_rows(matrices, [column_placement(idx) for idx in columns], n_modes)
    check_circuits(full)
    return full


def check_circuits(circuits: np.ndarray) -> None:
    """Raise ValueError unless every circuit matrix of the stack is unitary within 1e-12."""
    _check_isometry(circuits, "composed circuit matrix is not unitary: {:.3g}")


def column_placement(columns: Sequence[int]) -> slice | np.ndarray:
    """Valid circuit columns as `compose_rows` places them: a slice when consecutive, else as given.

    A slice reads and writes the columns through a view.
    """
    cols = np.asarray(columns).tolist()
    run = range(cols[0], cols[0] + len(cols))
    return slice(run.start, run.stop) if cols == list(run) else columns


def compose_rows(
    matrices: Sequence[np.ndarray], placements: Sequence[slice | np.ndarray], n_modes: int,
    rows: Sequence[int] | None = None,
) -> np.ndarray:
    """The rows `rows` (all when None) of `compose_circuit_matrix`'s product, unchecked.

    `placements[k]` is the `column_placement` of element k's columns.  The
    product starts from those rows of the identity, and each step rewrites
    its element's columns of every row, multiplying the rows by the
    element's matrix; no row is read for another, so the rows come out as
    the same rows of the full product, bit for bit.  Result B + (rows, n).
    """
    batch = np.broadcast_shapes(*{m.shape[:-2] for m in matrices})
    rows = range(n_modes) if rows is None else rows
    # the identity's rows for every batch entry: zeros with each row's diagonal entry set
    out = np.zeros(batch + (len(rows), n_modes), dtype=complex)
    out.reshape(math.prod(batch), len(rows) * n_modes)[:, np.arange(len(rows)) * n_modes + rows] = 1.0
    for m, at in zip(matrices, placements):
        block = out[..., at]
        if m.ndim == 2 and block.ndim > 2:  # one matrix for the whole stack: one product
            out[..., at] = (block.reshape(-1, m.shape[-1]) @ m).reshape(block.shape)
        else:
            out[..., at] = block @ m
    return out

