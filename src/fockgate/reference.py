"""The reference the permanent engine is held to: sequential Fock evolution and a permutation-sum oracle.

No command runs on this module.  The tests and the `check` criteria
compare `gate.extract_gate` and `gate.run_heralded` against it:

  * product states built photon by photon (`qubit_state`,
    `program_state`, `tensor`), which `gate.prepare_input` matches bit
    for bit;
  * the sequential Fock engine: `run_elements` applies each realized
    element of `Netlist.steps` by the exact multinomial substitution
    (`apply_element`), `fock.project_herald` keeps the heralded branch
    and `heralded_output_amplitudes` reads its logical outputs;
  * the permanent oracle: `permanent` and `amplitude_via_permanent` sum
    over permutations, sharing no code with `elements.permanents`.

It imports only `fockgate.fock`, so the production modules may import
from it and it reads nothing they compute but the realized elements.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import getitem
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .fock import (
    H,
    V,
    PRUNE_THRESHOLD,
    FockVector,
    Mode,
    PureState,
    check_qubit,
    program_amplitudes,
)

if TYPE_CHECKING:
    from .elements import ElementMatrix
    from .gate import Netlist


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of states on disjoint mode sets.

    The result lives on the concatenated (a then b) mode list; amplitudes
    multiply term by term.
    """
    shared = set(a.modes) & set(b.modes)
    if shared:
        name = sorted(shared)[0]
        raise ValueError(f"mode sets overlap: {name!r} appears in both factors")
    modes = a.modes + b.modes
    terms: dict[FockVector, complex] = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            terms[va + vb] = ca * cb
    return PureState(modes, terms)


def qubit_state(modes: Sequence[Mode], port: str, alpha: complex, beta: complex) -> PureState:
    """Single polarization-encoded photon alpha|H> + beta|V> on `port`.

    The amplitudes must pass `check_qubit`.
    """
    check_qubit(alpha, beta)
    mh, mv = Mode(port, H), Mode(port, V)
    ih, iv = list(modes).index(mh), list(modes).index(mv)
    terms: dict[FockVector, complex] = {}
    base = [0] * len(modes)
    if abs(alpha) > 0:
        vh = list(base)
        vh[ih] = 1
        terms[tuple(vh)] = alpha
    if abs(beta) > 0:
        vv = list(base)
        vv[iv] = 1
        terms[tuple(vv)] = beta
    return PureState(modes, terms)


def program_state(modes: Sequence[Mode], port: str, phi: float) -> PureState:
    """Program photon (|H> + e^{i phi}|V>)/sqrt(2) on `port`."""
    return qubit_state(modes, port, *program_amplitudes(phi))


def apply_element(state: PureState, element: ElementMatrix) -> PureState:
    """Apply the exact bosonic substitution a_i -> sum_j M[i,j] a_j on the element's modes.

    Element modes not yet present in the state are appended in vacuum
    (this is how filter loss modes enter).  The expansion is the exact
    multinomial one; photon number is conserved term by term and norm is
    preserved for unitary elements.
    """
    new_modes = list(state.modes)
    position = {m: i for i, m in enumerate(new_modes)}
    for m in element.modes:
        if m not in position:
            position[m] = len(new_modes)
            new_modes.append(m)
    idx = [position[m] for m in element.modes]
    pad = len(new_modes) - len(state.modes)

    rows = element.matrix.tolist()  # read once, as Python numbers
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
        for row, n in zip(rows, ns):
            if n == 0:
                continue
            expansions = _expand_power(expansions, row, idx, n)
        for out_vec, coeff in expansions:
            total = coeff * math.sqrt(_prod_fact(out_vec[j] for j in idx))
            terms[out_vec] = terms.get(out_vec, 0.0) + total
    kept = {k: v for k, v in terms.items() if abs(v) >= PRUNE_THRESHOLD}
    return PureState(new_modes, kept)


def _prod_fact(ns: Iterable[int]) -> float:
    p = 1
    for n in ns:
        p *= math.factorial(n)
    return float(p)


def _expand_power(
    expansions: list[tuple[FockVector, complex]],
    row: Sequence[complex],
    out_idx: Sequence[int],
    n: int,
) -> list[tuple[FockVector, complex]]:
    """Multiply expansion terms by (sum_j row[j] a_out,j)^n via the multinomial.

    `row` holds the element row as Python numbers.
    """
    results: dict[FockVector, complex] = {}
    k = len(out_idx)
    for split, weight in _weighted_compositions(n, k):
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


@lru_cache(maxsize=256)
def _weighted_compositions(n: int, k: int) -> tuple[tuple[tuple[int, ...], complex], ...]:
    """`_compositions(n, k)` in its order, each with its multinomial coefficient as a complex."""
    return tuple((split, complex(_multinomial(n, split))) for split in _compositions(n, k))


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


def run_elements(netlist: Netlist, state: PureState) -> PureState:
    """`state` sent through `netlist.steps` in order, each by `apply_element`.

    The sequential Fock reference: it reads the realized elements the
    circuit is composed from, never the circuit or its kept amplitudes.
    """
    for step in netlist.steps:
        state = apply_element(state, step.element)
    return state


def heralded_output_amplitudes(
    netlist: Netlist, branch: PureState
) -> np.ndarray:
    """Amplitudes of the four logical outputs in a heralded branch.

    The heralded branch of a three-photon run has exactly one photon on
    the target port, one on the control port and one in the detector
    mode; the logical output is read from the two output polarizations.
    """
    enc = netlist.encoding
    modes = list(branch.modes)
    det_pol = netlist.detector_pol
    idx = {
        "tH": modes.index(Mode(enc.target, H)),
        "tV": modes.index(Mode(enc.target, V)),
        "cH": modes.index(Mode(enc.control, H)),
        "cV": modes.index(Mode(enc.control, V)),
        "det": modes.index(Mode(enc.program, det_pol)),
    }
    out = np.zeros(4, dtype=complex)
    for vec, amp in branch.items():
        t_pol = None
        c_pol = None
        if vec[idx["tH"]] == 1 and vec[idx["tV"]] == 0:
            t_pol = 0
        elif vec[idx["tV"]] == 1 and vec[idx["tH"]] == 0:
            t_pol = 1
        if vec[idx["cH"]] == 1 and vec[idx["cV"]] == 0:
            c_pol = 0
        elif vec[idx["cV"]] == 1 and vec[idx["cH"]] == 0:
            c_pol = 1
        if t_pol is None or c_pol is None or vec[idx["det"]] != 1:
            continue
        out[2 * t_pol + c_pol] += amp
    return out


def permanent(matrix: np.ndarray) -> complex:
    """Permanent by direct permutation sum; intended for n <= 4."""
    m = np.asarray(matrix)
    n = m.shape[0] if m.ndim else 0
    if m.shape != (n, n):
        raise ValueError("permanent requires a square matrix")
    return _permutation_sum(m.tolist(), range(n))


def _permutation_sum(rows: Sequence[Sequence[complex]], cols: Sequence[int]) -> complex:
    """Permanent of the matrix rows[i][cols[k]], by summing over the orderings of `cols`.

    The entries are Python numbers, so no numpy arithmetic runs; a
    repeated column index repeats that column.
    """
    total = 0.0 + 0.0j
    for perm in itertools.permutations(cols):
        total += math.prod(map(getitem, rows, perm))
    return total


def amplitude_via_permanent(
    unitary: np.ndarray | Sequence[Sequence[complex]],
    input_vec: FockVector,
    output_vec: FockVector,
) -> complex:
    """Transition amplitude through a full mode matrix, via the permanent.

    With the transfer convention a_in,i -> sum_j U[i,j] a_out,j the
    amplitude from occupations n to occupations m is
    perm(U[rows repeated n_i times, cols repeated m_j times]) divided by
    sqrt(prod n_i! prod m_j!).  Serves as an independent oracle against
    sequential apply_element; photon totals must match and be <= 4.
    `unitary` is an (n, n) array or its rows as lists of Python numbers
    (`unitary.tolist()`), which a caller evaluating many amplitudes of
    one circuit converts once.
    """
    n_in = sum(input_vec)
    n_out = sum(output_vec)
    if n_in != n_out:
        raise ValueError(f"photon totals differ: input {n_in} vs output {n_out}")
    if n_in > 4:
        raise ValueError("permanent oracle limited to <= 4 photons")
    rows, in_fact = _photon_modes(input_vec)
    cols, out_fact = _photon_modes(output_vec)
    if isinstance(unitary, np.ndarray):
        picked = unitary[rows].tolist()  # the rows used, as Python numbers
    else:
        picked = [unitary[i] for i in rows]
    return _permutation_sum(picked, cols) / math.sqrt(in_fact * out_fact)


def _photon_modes(vec: FockVector) -> tuple[list[int], int]:
    """The mode of each photon of `vec` (mode i repeated vec[i] times) and prod_i vec[i]!.

    Only the occupied modes are visited.
    """
    modes: list[int] = []
    fact = 1
    for i in itertools.compress(range(len(vec)), vec):
        n = vec[i]
        modes += [i] * n
        fact *= math.factorial(n)
    return modes, fact
