"""Sparse multi-photon Fock states over labeled optical modes.

A mode is a (port, polarization) pair.  States are sparse complex
superpositions of occupation-number vectors, one entry per mode of the
circuit.  Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

PRUNE_THRESHOLD = 1e-14

# How far |alpha|^2 + |beta|^2 of a qubit may lie from 1 (`check_qubit`).
QUBIT_NORM_TOL = 1e-12


class Polarization(Enum):
    """Two-valued polarization label; H encodes logical 0, V logical 1."""

    H = "H"
    V = "V"

    def __lt__(self, other: "Polarization") -> bool:
        # H sorts before V so (port, pol) ordering is reproducible.
        order = {"H": 0, "V": 1}
        return order[self.value] < order[other.value]


H = Polarization.H
V = Polarization.V


@dataclass(frozen=True, order=True)
class Mode:
    """A single optical mode: a named spatial port carrying one polarization.

    A `pol` that is not a Polarization raises ValueError naming it.
    """

    port: str
    pol: Polarization

    def __post_init__(self):
        if not isinstance(self.pol, Polarization):
            raise ValueError(f"mode polarization {self.pol!r} is not a Polarization (H or V)")

    def __repr__(self) -> str:
        return f"{self.port}:{self.pol.value}"


def modes_for_ports(ports: Sequence[str]) -> tuple[Mode, ...]:
    """Expand port names into the canonical mode list (port order, H before V)."""
    out = []
    for p in ports:
        out.append(Mode(p, H))
        out.append(Mode(p, V))
    return tuple(out)


FockVector = tuple  # occupation numbers, one per mode, in canonical order


class PureState:
    """Sparse superposition of Fock basis vectors with complex amplitudes.

    Amplitudes below PRUNE_THRESHOLD are dropped at construction, so a
    zero state has no stored terms; a NaN or infinite amplitude raises
    ValueError.  A state is never renormalized: a heralded branch keeps
    its squared norm, the herald probability.

    Checks, then core: the constructor refuses an occupation vector whose
    length is not the number of modes or that holds a negative count (it
    checks every occupation before any amplitude), then runs the core,
    `_fill`, which refuses a non-finite amplitude, prunes and orders the
    terms.  `_from_valid` builds a state through the core alone, for
    occupations valid by construction: `gate.prepare_input` (the netlist's
    basis inputs) and `gate.run_heralded` (the outputs its gather
    enumerates on the netlist's modes) call it.  Its state is the one the
    constructor builds, bit for bit.
    """

    __slots__ = ("modes", "_terms")

    def __init__(self, modes: Sequence[Mode], terms: Mapping[FockVector, complex]):
        modes = tuple(modes)
        n = len(modes)
        for vec in terms:
            if len(vec) != n:
                raise ValueError(
                    f"occupation vector of length {len(vec)} does not match "
                    f"{n} modes"
                )
            if min(vec, default=0) < 0:
                raise ValueError(f"negative occupation in {vec}")
        self._fill(modes, terms)

    @classmethod
    def _from_valid(cls, modes: tuple[Mode, ...], terms: Mapping[FockVector, complex]) -> "PureState":
        """The constructor's state, without its occupation checks; `modes` is a tuple."""
        state = cls.__new__(cls)
        state._fill(modes, terms)
        return state

    def _fill(self, modes: tuple[Mode, ...], terms: Mapping[FockVector, complex]) -> None:
        kept: dict[FockVector, complex] = {}
        for vec, amp in terms.items():
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude {amp} of {vec} is not finite")
            if abs(amp) >= PRUNE_THRESHOLD:
                kept[vec] = complex(amp)
        self.modes = modes
        # canonical order: lexicographic over occupation vectors
        self._terms = dict(sorted(kept.items()))

    @classmethod
    def vacuum(cls, modes: Sequence[Mode]) -> "PureState":
        return cls(modes, {tuple([0] * len(modes)): 1.0})

    def items(self) -> Iterator[tuple[FockVector, complex]]:
        return iter(self._terms.items())

    def amplitude(self, vec: FockVector) -> complex:
        return self._terms.get(tuple(vec), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "PureState(0)"
        parts = []
        for vec, amp in self._terms.items():
            parts.append(f"({amp:.4g})|{','.join(str(k) for k in vec)}>")
        return " + ".join(parts)


def norm_squared(state: PureState) -> float:
    """Total probability of the state: sum of |amplitude|^2 over all terms."""
    return sum(abs(a) ** 2 for _, a in state.items())


@dataclass(frozen=True)
class HeraldCondition:
    """Exact photon-count constraint on a subset of modes.

    A negative mode index, which would count a mode from the end, raises
    ValueError when the condition is made.
    """

    mode_indices: tuple[int, ...]
    count: int

    def __post_init__(self):
        if min(self.mode_indices, default=0) < 0:
            raise ValueError(f"herald mode index {min(self.mode_indices)} is negative")

    def satisfied(self, vec: FockVector) -> bool:
        return sum(vec[i] for i in self.mode_indices) == self.count


@dataclass(frozen=True)
class HeraldPattern:
    """Conjunction of exact-count conditions; the always-true pattern is empty."""

    conditions: tuple[HeraldCondition, ...] = ()

    def satisfied(self, vec: FockVector) -> bool:
        return all(c.satisfied(vec) for c in self.conditions)

    def check_modes(self, n_modes: int) -> None:
        """Raise KeyError for a mode index that a state on `n_modes` modes does not have."""
        for cond in self.conditions:
            for i in cond.mode_indices:
                if i >= n_modes:
                    raise KeyError(f"herald references mode index {i} outside state")

    @classmethod
    def on_modes(
        cls,
        state_modes: Sequence[Mode],
        constraints: Iterable[tuple[Sequence[Mode], int]],
    ) -> "HeraldPattern":
        conds = []
        mode_list = list(state_modes)
        for subset, count in constraints:
            idx = []
            for m in subset:
                if m not in mode_list:
                    raise KeyError(f"herald references unknown mode {m!r}")
                idx.append(mode_list.index(m))
            conds.append(HeraldCondition(tuple(idx), count))
        return cls(tuple(conds))


def project_herald(state: PureState, pattern: HeraldPattern) -> tuple[PureState, float]:
    """Project onto the terms satisfying `pattern`.

    Returns the sub-normalized surviving branch and its squared norm
    (the herald probability).  The branch is NOT renormalized.  A mode
    index outside the state raises KeyError (`HeraldPattern.check_modes`).
    """
    pattern.check_modes(len(state.modes))
    kept = {vec: amp for vec, amp in state.items() if pattern.satisfied(vec)}
    prob = sum(abs(a) ** 2 for a in kept.values())
    return PureState(state.modes, kept), prob


def check_qubit(alpha: complex, beta: complex) -> None:
    """Raise ValueError unless alpha and beta are finite and |alpha|^2 + |beta|^2 = 1.

    The norm may deviate from 1 by at most QUBIT_NORM_TOL.
    """
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"qubit amplitudes must be finite, got ({alpha}, {beta})")
    dev = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
    if dev > QUBIT_NORM_TOL:
        raise ValueError(
            f"qubit amplitudes not normalized: |a|^2+|b|^2 deviates by {dev:.3g}"
        )


def check_phase(phi: float) -> None:
    """Raise ValueError naming phi unless the program phase is finite."""
    if not math.isfinite(phi):
        raise ValueError(f"program phase phi must be finite, got {phi}")


def program_amplitudes(phi: float) -> tuple[float, complex]:
    """(H, V) amplitudes of the program photon (|H> + e^{i phi}|V>)/sqrt(2).

    A phase that is not finite raises ValueError naming phi (`check_phase`).
    """
    check_phase(phi)
    return 1 / math.sqrt(2), complex(math.cos(phi), math.sin(phi)) / math.sqrt(2)
