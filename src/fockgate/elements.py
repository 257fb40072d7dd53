"""Optical elements as single-photon mode transformations.

An element is an isometry from a set of input modes to a set of output
modes, stored in transfer orientation: matrix[i, j] is the amplitude
from input mode i to output mode j, so a creation operator maps as

    a_in,i  ->  sum_j matrix[i, j] a_out,j

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

from .fock import H, V, Mode, Polarization, PureState, FockVector, PRUNE_THRESHOLD

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

WAVEPLATE_PRESETS = {
    "hwp1": HWP1_MATRIX,
    "hadamard": HADAMARD_MATRIX,
}


@dataclass(frozen=True)
class ElementMatrix:
    """Isometry attached to named modes.

    ports_in: modes consumed; ports_out: modes produced.  matrix has
    shape (..., len(ports_in), len(ports_out)) in transfer orientation: a
    leading batch shape makes it a stack of matrices, one per point of a
    sweep.  The rows of every matrix in the stack are orthonormal (each
    input maps to a unit-norm output combination) within 1e-12.
    """

    ports_in: tuple[Mode, ...]
    ports_out: tuple[Mode, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape[-2:] != (len(self.ports_in), len(self.ports_out)):
            raise ValueError(
                f"matrix shape {m.shape} does not match "
                f"{len(self.ports_in)} inputs x {len(self.ports_out)} outputs"
            )
        _check_isometry(m, "element is not an isometry: deviation {:.3g}")
        object.__setattr__(self, "matrix", m)

    @property
    def square(self) -> bool:
        return len(self.ports_in) == len(self.ports_out)


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


def _check_amp(value: float, what: str) -> float:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{what} amplitude {value} outside [0, 1]")
    return float(value)


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
    modes = (Mode(port_a, H), Mode(port_a, V), Mode(port_b, H), Mode(port_b, V))
    m = np.zeros((4, 4), dtype=complex)
    # H block
    m[0, 0], m[0, 2] = t_h, r_h
    m[2, 0], m[2, 2] = -r_h, t_h
    # V block
    m[1, 1], m[1, 3] = t_v, r_v
    m[3, 1], m[3, 3] = -r_v, t_v
    return ElementMatrix(modes, modes, m)


def polarizing_beam_splitter(port_a: str, port_b: str) -> ElementMatrix:
    """Ideal PBS routing unitary: H bar-passes, V cross-passes (amplitude +1)."""
    modes = (Mode(port_a, H), Mode(port_a, V), Mode(port_b, H), Mode(port_b, V))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0  # a-H stays
    m[2, 2] = 1.0  # b-H stays
    m[1, 3] = 1.0  # a-V crosses to b
    m[3, 1] = 1.0  # b-V crosses to a
    return ElementMatrix(modes, modes, m)


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
    theta_h, theta_v = np.broadcast_arrays(
        np.asarray(theta_h, dtype=float), np.asarray(theta_v, dtype=float)
    )
    ch, sh = np.cos(theta_h), np.sin(theta_h)
    cv, sv = np.cos(theta_v), np.sin(theta_v)
    modes = (Mode(port_a, H), Mode(port_a, V), Mode(port_b, H), Mode(port_b, V))
    m = np.zeros(theta_h.shape + (4, 4), dtype=complex)
    m[..., 0, 0], m[..., 0, 2] = ch, sh
    m[..., 2, 0], m[..., 2, 2] = -sh, ch
    m[..., 1, 1], m[..., 1, 3] = cv, sv
    m[..., 3, 1], m[..., 3, 3] = (sv, -cv) if v_reflect else (-sv, cv)
    return ElementMatrix(modes, modes, m)


def partially_polarizing_beam_splitter(
    port_a: str, port_b: str, bar_h: float = 1.0, bar_v: float = 1.0 / SQ3
) -> ElementMatrix:
    """PPBS: per-polarization rotation with bar amplitudes (bar_h, bar_v).

    Default is the unit-H / 1-over-sqrt3-V splitter whose two-V-photon
    coincidence amplitude is t^2 - r^2 = -1/3.
    """
    _check_amp(bar_h, "PPBS bar H")
    _check_amp(bar_v, "PPBS bar V")
    cross_h = math.sqrt(max(0.0, 1.0 - bar_h * bar_h))
    cross_v = math.sqrt(max(0.0, 1.0 - bar_v * bar_v))
    return beam_splitter(port_a, port_b, t_h=bar_h, r_h=cross_h, t_v=bar_v, r_v=cross_v)


def attenuating_filter(
    port: str, loss_port: str, t_h: float, t_v: float
) -> ElementMatrix:
    """Per-polarization amplitude filter; rejected light goes to `loss_port`.

    Implemented as a coupler into the loss port, so the element is a full
    unitary and photon number stays exact with losses explicit.
    """
    _check_amp(t_h, "filter H transmission")
    _check_amp(t_v, "filter V transmission")
    return beam_splitter(
        port,
        loss_port,
        t_h=t_h,
        r_h=math.sqrt(max(0.0, 1.0 - t_h * t_h)),
        t_v=t_v,
        r_v=math.sqrt(max(0.0, 1.0 - t_v * t_v)),
    )


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
    dev = np.max(np.abs(m @ m.conj().T - np.eye(2)))
    if dev > 1e-12:
        raise ValueError(f"wave plate matrix is not unitary: deviation {dev:.3g}")
    modes = (Mode(port, H), Mode(port, V))
    return ElementMatrix(modes, modes, m)


def phase_shift(port: str, phase_h: float = 0.0, phase_v: float = 0.0) -> ElementMatrix:
    """Diagonal phase on the (H, V) modes of one port."""
    modes = (Mode(port, H), Mode(port, V))
    m = np.diag([np.exp(1j * phase_h), np.exp(1j * phase_v)]).astype(complex)
    return ElementMatrix(modes, modes, m)


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
    """Apply the exact bosonic substitution a_in,i -> sum_j M[i,j] a_out,j.

    Element modes not yet present in the state are appended in vacuum
    (this is how filter loss modes enter).  The expansion is the exact
    multinomial one; photon number is conserved term by term and norm is
    preserved for unitary elements.
    """
    modes = list(state.modes)
    new_modes = modes + [
        m
        for m in element.ports_in + element.ports_out
        if m not in modes
    ]
    new_modes = list(dict.fromkeys(new_modes))
    in_idx = [new_modes.index(m) for m in element.ports_in]
    out_idx = [new_modes.index(m) for m in element.ports_out]
    in_set = set(in_idx)
    pad = len(new_modes) - len(modes)

    terms: dict[FockVector, complex] = {}
    for orig_vec, amp in state.items():
        vec = orig_vec + (0,) * pad
        base = list(vec)
        ns = []
        for i in in_idx:
            ns.append(base[i])
            base[i] = 0
        prefactor = amp / math.sqrt(_prod_fact(ns))
        stale = _prod_fact(
            vec[j] for j in out_idx if j not in in_set
        )
        expansions: list[tuple[FockVector, complex]] = [(tuple(base), prefactor)]
        for row_pos, n in enumerate(ns):
            if n == 0:
                continue
            expansions = _expand_power(
                expansions, element.matrix[row_pos], out_idx, n
            )
        for out_vec, coeff in expansions:
            extra = _prod_fact(out_vec[j] for j in out_idx)
            total = coeff * math.sqrt(extra / stale)
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
    elements: Sequence[ElementMatrix], modes: Sequence[Mode]
) -> np.ndarray:
    """Product of the elements, each acting on its own modes of the full set.

    Elements are given in application order; in transfer orientation the
    composite is M1 @ M2 @ ... @ Mk, with each Mi the identity outside its
    element's modes.  An element maps its modes onto themselves, so each
    step rewrites only the columns of those modes.  Elements must be
    square (unitary; filters already are, by construction) and act on
    modes of `modes`.  Stacked element matrices broadcast: the result has
    shape B + (n, n), with B the common batch shape of the elements (empty
    when none is stacked), and every matrix in it is unitary within 1e-12.
    """
    n = len(modes)
    pos = {m: i for i, m in enumerate(modes)}
    batch = np.broadcast_shapes(*{el.matrix.shape[:-2] for el in elements})
    # the identity, broadcast to the batch shape
    full = np.eye(n, dtype=complex) + np.zeros(batch + (n, n), dtype=complex)
    for el in elements:
        if not el.square:
            raise ValueError("only square (unitary) elements can be composed")
        for m in el.ports_in + el.ports_out:
            if m not in pos:
                raise KeyError(f"unresolved port: mode {m!r} not in circuit mode set")
        in_idx = [pos[m] for m in el.ports_in]
        out_idx = [pos[m] for m in el.ports_out]
        full[..., out_idx] = full[..., in_idx] @ el.matrix
    _check_isometry(full, "composed circuit matrix is not unitary: {:.3g}")
    return full
