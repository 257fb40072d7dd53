"""Heralded programmable-CPHASE circuit: netlist assembly and gate extraction.

The default netlist implements the three-photon polarization scheme:
the target splits by polarization at PBS1, the upper (H) arm is
attenuated by F1, the lower (V) arm is rotated by HWP1 and interferes
with the control at the PPBS, whose two-photon interference imprints a
pi phase on the lower arm exactly when both qubits are |1>.  The filter
F2 balances the control path, a Hadamard-form plate (HWP2) collapses
the lower arm to H for control |0> and V for control |1>, PBS3 merges
the program photon into the lower arm (its V component) while routing
the lower arm's V to the detector arm, HWP3 mixes the lower arm so its
V portion reflects into T_OUT at PBS2, and the detector measures the
PBS3 side arm in the rotated (+-45 degree) basis.

A successful run heralds on one photon at T_OUT, one at C_OUT and one
detector click; each computational-basis input then heralds with
probability 1/48 and the realized operator is diag(1, 1, 1, e^{i phi}).

`extract_gate` and `run_heralded` read heralded amplitudes from
permanents of the composed circuit matrix (`heralded_transfer`).  Circuit
matrices may come as a stack, one per point of a parameter sweep, and
`heralded_operators` reads the gate off every matrix of a stack at once.
The sequential Fock engine, `run_elements` followed by `project_herald`,
computes the same branches element by element; it is the reference the
tests and the acceptance checks hold the permanent engine to.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .fock import (
    H,
    V,
    PRUNE_THRESHOLD,
    FockVector,
    HeraldCondition,
    HeraldPattern,
    Mode,
    Polarization,
    PureState,
    modes_for_ports,
    norm_squared,
    program_state,
    qubit_state,
    tensor,
)
from .elements import (
    HADAMARD_MATRIX,
    ElementMatrix,
    apply_element,
    attenuating_filter,
    beam_splitter,
    compose_circuit_matrix,
    coupler,
    partially_polarizing_beam_splitter,
    permanents,
    phase_shift,
    polarizing_beam_splitter,
    wave_plate,
)

SQ3 = math.sqrt(3.0)

PORT_ROLES = ("input", "output", "io", "internal", "loss", "detector", "program")

# Element kinds and the number of ports each wires; a dump takes any number.
ELEMENT_ARITY = {
    "pbs": 2,
    "ppbs": 2,
    "beamsplitter": 2,
    "filter": 2,
    "waveplate": 1,
    "phaseshift": 1,
    "detector": 1,
    "dump": None,
}
ELEMENT_KINDS = tuple(ELEMENT_ARITY)

# Two-port couplers given by coupling angles or by bar amplitudes.
COUPLER_KINDS = ("pbs", "ppbs", "filter")

# Parameters each element kind accepts; any other key is a validation error.
ELEMENT_PARAMS = {
    "pbs": ("theta_h", "theta_v"),
    "ppbs": ("bar_h", "bar_v", "theta_h", "theta_v"),
    "beamsplitter": ("t_h", "r_h", "t_v", "r_v"),
    "filter": ("t_h", "t_v", "theta_h", "theta_v"),
    "waveplate": ("preset", "matrix"),
    "phaseshift": ("phase_h", "phase_v"),
    "detector": ("rotated",),
    "dump": (),
}


class NetlistError(ValueError):
    """Raised when a netlist fails validation."""


@dataclass(frozen=True)
class PortDecl:
    name: str
    role: str = "internal"

    def __post_init__(self):
        if self.role not in PORT_ROLES:
            raise NetlistError(f"unknown port role {self.role!r} for {self.name!r}")


@dataclass(frozen=True)
class ElementSpec:
    """One circuit element as data: kind, wired ports, kind-specific params."""

    name: str
    kind: str
    ports: tuple[str, ...]
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        if self.kind not in ELEMENT_KINDS:
            raise NetlistError(f"unknown element kind {self.kind!r} ({self.name})")

    @property
    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def with_params(self, **updates: Any) -> "ElementSpec":
        merged = dict(self.params)
        merged.update(updates)
        return replace(self, params=tuple(sorted(merged.items())))


def spec(name: str, kind: str, ports: Sequence[str], **params: Any) -> ElementSpec:
    return ElementSpec(name, kind, tuple(ports), tuple(sorted(params.items())))


@dataclass(frozen=True)
class HeraldTerm:
    """Exact-count condition: `count` photons total over ports x pols."""

    ports: tuple[str, ...]
    pols: tuple[Polarization, ...]
    count: int


@dataclass(frozen=True)
class QubitEncoding:
    target: str
    control: str
    program: str


@dataclass(frozen=True)
class Netlist:
    """A validated circuit with its mode layout fixed at construction.

    `modes` is the canonical mode order (declared port order, H before V)
    of circuit matrices and states; `columns` maps each mode to its index
    there.  Neither takes part in equality or hashing.
    """

    ports: tuple[PortDecl, ...]
    elements: tuple[ElementSpec, ...]
    herald: tuple[HeraldTerm, ...]
    encoding: QubitEncoding
    modes: tuple[Mode, ...] = field(init=False, compare=False, repr=False)
    columns: dict[Mode, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.validate()
        modes = modes_for_ports(self.port_names)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "columns", {m: i for i, m in enumerate(modes)})

    # -- structure ---------------------------------------------------------

    @property
    def port_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.ports)

    def element(self, name: str) -> ElementSpec:
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(f"no element named {name!r}")

    def validate(self) -> None:
        names = self.port_names
        if len(set(names)) != len(names):
            raise NetlistError("duplicate port declarations")
        seen = set()
        for el in self.elements:
            if el.name in seen:
                raise NetlistError(f"duplicate element name {el.name!r}")
            seen.add(el.name)
            if len(set(el.ports)) != len(el.ports):
                raise NetlistError(f"element {el.name!r} wires a port twice")
            arity = ELEMENT_ARITY.get(el.kind)
            if arity is not None and len(el.ports) != arity:
                raise NetlistError(
                    f"element {el.name!r} of kind {el.kind!r} needs {arity} "
                    f"port(s), got {len(el.ports)}"
                )
            for p in el.ports:
                if p not in names:
                    raise NetlistError(
                        f"element {el.name!r} wired to undeclared port {p!r}"
                    )
            for key, _ in el.params:
                if key not in ELEMENT_PARAMS[el.kind]:
                    raise NetlistError(
                        f"element {el.name!r} of kind {el.kind!r} has unknown "
                        f"parameter {key!r}"
                    )
        if not self.herald:
            raise NetlistError("herald pattern is empty")
        for term in self.herald:
            for p in term.ports:
                if p not in names:
                    raise NetlistError(f"herald references unknown port {p!r}")
            if term.count < 0:
                raise NetlistError("herald count must be non-negative")
        for qport in (self.encoding.target, self.encoding.control, self.encoding.program):
            if qport not in names:
                raise NetlistError(f"encoding references unknown port {qport!r}")
        if len({self.encoding.target, self.encoding.control, self.encoding.program}) != 3:
            raise NetlistError("target, control and program ports must be distinct")

    # -- realization -------------------------------------------------------

    def build_matrices(self) -> list[ElementMatrix]:
        """Element matrices in application order (detector basis rotation included).

        An element whose parameters cannot be realized (missing, of the
        wrong type or out of range) raises NetlistError naming it.
        """
        out = []
        for el in self.elements:
            try:
                m = build_element(el)
            except KeyError as exc:
                raise NetlistError(
                    f"element {el.name!r} of kind {el.kind!r} lacks parameter "
                    f"{exc.args[0]!r}"
                ) from exc
            except (ValueError, TypeError) as exc:
                raise NetlistError(f"element {el.name!r}: {exc}") from exc
            if m is not None:
                out.append(m)
        return out

    def herald_pattern(self) -> HeraldPattern:
        """The herald terms as exact-count conditions on the columns of `modes`."""
        return HeraldPattern(tuple(
            HeraldCondition(
                tuple(self.columns[Mode(p, pol)] for p in term.ports for pol in term.pols),
                term.count,
            )
            for term in self.herald
        ))

    def with_overrides(self, overrides: Mapping[str, ElementSpec]) -> "Netlist":
        """Replace named elements (used to inject imperfect devices)."""
        for name in overrides:
            self.element(name)  # raises KeyError on unknown name
        new_elements = tuple(
            overrides.get(el.name, el) for el in self.elements
        )
        return replace(self, elements=new_elements)

    def census(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for el in self.elements:
            counts[el.kind] = counts.get(el.kind, 0) + 1
        return counts


def coupler_angles(el: ElementSpec) -> tuple[Any, Any]:
    """Coupling angles (theta_h, theta_v) of a pbs, ppbs or filter; bar amplitude cos(theta).

    Each angle is the element's own `theta_h`/`theta_v` where it sets one,
    otherwise the arccosine of its bar amplitude: a filter's `t_h`/`t_v`
    (required), a PPBS's `bar_h`/`bar_v` (default 1 and 1/sqrt3).  A PBS
    without angles is the routing PBS, (0, pi/2) in reflection form.  A bar
    amplitude outside [0, 1] raises ValueError.
    """
    p = el.param_dict
    if el.kind == "pbs":
        return p.get("theta_h", 0.0), p.get("theta_v", math.pi / 2.0)
    if el.kind == "ppbs":
        bar_keys, bars = ("bar_h", "bar_v"), {"bar_h": 1.0, "bar_v": 1.0 / SQ3, **p}
    elif el.kind == "filter":
        bar_keys, bars = ("t_h", "t_v"), p
    else:
        raise ValueError(f"element kind {el.kind!r} is not a coupler")
    angles = []
    for key, bar_key in zip(("theta_h", "theta_v"), bar_keys):
        if key in p:
            angles.append(p[key])
        elif 0.0 <= bars[bar_key] <= 1.0:
            angles.append(math.acos(bars[bar_key]))
        else:
            raise ValueError(f"bar amplitude {bar_key} = {bars[bar_key]} outside [0, 1]")
    return tuple(angles)


def build_element(el: ElementSpec) -> ElementMatrix | None:
    """Realize one ElementSpec as an ElementMatrix (None for pure markers)."""
    p = el.param_dict
    if el.kind in COUPLER_KINDS and ("theta_h" in p or "theta_v" in p):
        return coupler(*el.ports, *coupler_angles(el), v_reflect=el.kind == "pbs")
    if el.kind == "pbs":
        return polarizing_beam_splitter(*el.ports)
    if el.kind == "ppbs":
        return partially_polarizing_beam_splitter(*el.ports, **p)  # bar_h/bar_v at most
    if el.kind == "beamsplitter":
        return beam_splitter(
            *el.ports,
            t_h=p["t_h"],
            r_h=p["r_h"],
            t_v=p.get("t_v"),
            r_v=p.get("r_v"),
        )
    if el.kind == "filter":
        return attenuating_filter(*el.ports, t_h=p["t_h"], t_v=p["t_v"])
    if el.kind == "waveplate":
        matrix = p.get("matrix")
        if matrix is None:
            matrix = p["preset"]
        else:
            matrix = np.asarray(matrix, dtype=complex)
        return wave_plate(el.ports[0], matrix)
    if el.kind == "phaseshift":
        return phase_shift(
            el.ports[0], phase_h=p.get("phase_h", 0.0), phase_v=p.get("phase_v", 0.0)
        )
    if el.kind == "detector":
        # rotated detectors measure in the +-45 degree basis; the basis
        # change is part of the detector assembly, applied before the
        # heralded projection onto the port's V mode.
        if p.get("rotated", False):
            return wave_plate(el.ports[0], HADAMARD_MATRIX)
        return None
    if el.kind == "dump":
        return None
    raise NetlistError(f"unhandled element kind {el.kind!r}")


def default_netlist() -> Netlist:
    """The shipped reconstruction of the programmable CPHASE circuit."""
    ports = (
        PortDecl("T", "io"),
        PortDecl("L", "internal"),
        PortDecl("C", "io"),
        PortDecl("P", "program"),
        PortDecl("F1_LOSS", "loss"),
        PortDecl("F2_LOSS", "loss"),
    )
    elements = (
        spec("PBS1", "pbs", ("T", "L")),
        spec("F1", "filter", ("T", "F1_LOSS"), t_h=0.5, t_v=0.5),
        spec("HWP1", "waveplate", ("L",), preset="hwp1"),
        spec("PPBS", "ppbs", ("L", "C"), bar_h=1.0, bar_v=1.0 / SQ3),
        spec("F2", "filter", ("C", "F2_LOSS"), t_h=1.0 / SQ3, t_v=1.0),
        spec("HWP2", "waveplate", ("L",), preset="hadamard"),
        spec("PBS3", "pbs", ("L", "P")),
        spec("HWP3", "waveplate", ("L",), preset="hadamard"),
        spec("PBS2", "pbs", ("T", "L")),
        spec("DET", "detector", ("P",), rotated=True),
    )
    herald = (
        HeraldTerm(("T",), (H, V), 1),
        HeraldTerm(("C",), (H, V), 1),
        HeraldTerm(("P",), (V,), 1),
    )
    return Netlist(ports, elements, herald, QubitEncoding("T", "C", "P"))


@dataclass(frozen=True)
class ProgramState:
    """Program qubit (|0> + e^{i phi}|1>)/sqrt(2); phi in radians."""

    phi: float


def prepare_input(
    netlist: Netlist,
    target: tuple[complex, complex],
    control: tuple[complex, complex],
    program: ProgramState,
) -> PureState:
    """Three-photon product input on the netlist's encoded ports.

    target and control are (alpha, beta) with |alpha|^2 + |beta|^2 = 1;
    the program photon is (|H> + e^{i phi}|V>)/sqrt(2).
    """
    enc = netlist.encoding
    t_modes = modes_for_ports([enc.target])
    c_modes = modes_for_ports([enc.control])
    p_modes = modes_for_ports([enc.program])
    st = tensor(
        tensor(
            qubit_state(t_modes, enc.target, target[0], target[1]),
            qubit_state(c_modes, enc.control, control[0], control[1]),
        ),
        program_state(p_modes, enc.program, program.phi),
    )
    return extend_state(st, netlist)


def extend_state(state: PureState, netlist: Netlist) -> PureState:
    """Re-express a state on `netlist.modes` (vacuum elsewhere).

    Raises KeyError for a state mode the netlist does not declare.
    """
    mapping = []
    for m in state.modes:
        if m not in netlist.columns:
            raise KeyError(f"mode {m!r} is not a mode of the netlist")
        mapping.append(netlist.columns[m])
    terms = {}
    for vec, amp in state.items():
        new = [0] * len(netlist.modes)
        for src, dst in enumerate(mapping):
            new[dst] = vec[src]
        terms[tuple(new)] = amp
    return PureState(netlist.modes, terms, subnormalized=state.subnormalized)


def run_elements(netlist: Netlist, state: PureState) -> PureState:
    for el in netlist.build_matrices():
        state = apply_element(state, el)
    return state


def run_heralded(netlist: Netlist, state: PureState) -> tuple[PureState, float]:
    """Heralded branch of `state` sent through the netlist, from permanents.

    The state is first laid out on `netlist.modes` (vacuum elsewhere), the
    order the herald pattern refers to.  Its terms are grouped by photon
    number; each group's amplitudes are contracted with the heralded
    transfer of the circuit matrix (see `heralded_transfer`), so any
    number of photons, vacuum and mixed-number superpositions all work.
    Amplitudes below PRUNE_THRESHOLD are dropped.  Returns the
    sub-normalized heralded branch and the herald probability, its
    squared norm.  `run_elements` followed by `project_herald` computes
    the same branch independently and is the reference for this one.
    """
    state = extend_state(state, netlist)
    unitary = circuit_matrix(netlist)
    pattern = netlist.herald_pattern()
    groups: dict[int, list[tuple[FockVector, complex]]] = {}
    for vec, amp in state.items():
        groups.setdefault(sum(vec), []).append((vec, amp))
    terms: dict[FockVector, complex] = {}
    for group in groups.values():
        vecs, amps = zip(*group)
        outputs, transfer = heralded_transfer(unitary, pattern, np.array(vecs))
        branch_amps = np.array(amps) @ transfer
        terms.update(zip(map(tuple, outputs.tolist()), branch_amps.tolist()))
    branch = PureState(netlist.modes, terms, subnormalized=True)
    return branch, norm_squared(branch)


def heralded_transfer(
    unitary: np.ndarray, pattern: HeraldPattern, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes from n-photon input occupations into the outputs `pattern` accepts.

    `unitary` is one circuit matrix (n_modes, n_modes) or a stack of them
    (..., n_modes, n_modes).  `inputs` has one row of occupation numbers
    per input, over the modes of `unitary`, and every row holds the same
    number n of photons.  Returns the accepted n-photon output
    occupations, one row each in ascending lexicographic order (the order
    `PureState` keeps its terms in), and the (..., inputs, outputs)
    amplitude array.  The amplitude from n to m is
    perm(U[rows repeated n_i times, cols repeated m_j times]) divided by
    sqrt(prod n_i! prod m_j!) (Aaronson and Arkhipov 2011).
    """
    inputs = np.asarray(inputs, dtype=int)
    n_modes = unitary.shape[-1]
    n = int(inputs[0].sum())
    if np.any(inputs.sum(axis=1) != n):
        raise ValueError("heralded transfer inputs must hold the same photon number")
    cols = _sorted_mode_tuples(n_modes, n)
    keep = np.ones(len(cols), dtype=bool)
    for cond in pattern.conditions:
        weight = np.bincount(np.asarray(cond.mode_indices, dtype=int), minlength=n_modes)
        keep &= weight[cols].sum(axis=1) == cond.count
    # ascending mode-index tuples are descending occupation vectors
    cols = cols[keep][::-1]
    outputs = (cols[:, :, None] == np.arange(n_modes)).sum(axis=1)
    rows = np.repeat(np.tile(np.arange(n_modes), len(inputs)), inputs.ravel())
    rows = rows.reshape(len(inputs), n)
    sub = unitary[..., rows[:, None, :, None], cols[None, :, None, :]]
    factorial = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    norm = np.sqrt(
        factorial[inputs].prod(axis=1)[:, None] * factorial[outputs].prod(axis=1)[None, :]
    )
    return outputs, permanents(sub) / norm


def _sorted_mode_tuples(n_modes: int, n: int) -> np.ndarray:
    """All mode-index n-tuples i_1 <= ... <= i_n, in lexicographic order."""
    tuples = np.zeros((1, 0), dtype=int)
    modes = np.arange(n_modes)
    for _ in range(n):
        last = tuples[:, -1] if tuples.shape[1] else np.zeros(1, dtype=int)
        src, new = np.nonzero(modes >= last[:, None])
        tuples = np.column_stack([tuples[src], new])
    return tuples


BASIS_LABELS = ("00", "01", "10", "11")


@dataclass(frozen=True)
class GateResult:
    """Extracted heralded two-qubit operator on (target tensor control).

    operator columns are the unnormalized heralded output amplitudes for
    each basis input, ordered |00>, |01>, |10>, |11>; column norms squared
    equal the herald probabilities.
    """

    operator: np.ndarray
    herald_probability: dict[str, float]
    phi_in: float
    fidelity: float

    @property
    def measured_phase(self) -> float:
        """arg(d33 / d00), the realized controlled phase, in [0, 2pi).

        NaN when d00 is zero: an operator under which |00> never heralds
        defines no controlled phase.
        """
        if self.operator[0, 0] == 0:
            return math.nan
        ratio = self.operator[3, 3] / self.operator[0, 0]
        return cmath.phase(ratio) % (2 * math.pi)

    @property
    def max_offdiagonal(self) -> float:
        off = self.operator - np.diag(np.diag(self.operator))
        return float(np.max(np.abs(off)))


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
    det_pol = _detector_pol(netlist)
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


def _detector_pol(netlist: Netlist) -> Polarization:
    for term in netlist.herald:
        if netlist.encoding.program in term.ports and len(term.pols) == 1:
            return term.pols[0]
    return V


def heralded_operators(
    netlist: Netlist, unitary: np.ndarray, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Heralded 4x4 operators and herald probabilities of circuit matrices.

    `unitary` is `circuit_matrix(netlist)`: one matrix, or a stack of shape
    (..., n, n) of the netlist's circuit at several parameter points.  A
    basis input puts one photon on each of the target, control and program
    ports; `heralded_transfer` gives its amplitudes into the three-photon
    outputs the herald accepts.  The program photon
    (|H> + e^{i phi}|V>)/sqrt(2) enters linearly: each column is
    (A_H + e^{i phi} A_V)/sqrt(2), so one circuit matrix serves every
    phase.  Amplitudes below PRUNE_THRESHOLD are dropped, a non-finite
    amplitude raises ValueError, and each herald probability is the
    squared norm of its column, summed in the heralded branch's term order.
    The logical outputs are read with `heralded_output_amplitudes`'s rule,
    here as one (outputs x 4) 0/1 matrix.  Returns the operators
    (..., 4, 4), columns ordered |00>, |01>, |10>, |11>, and the
    probabilities (..., 4) in the same order.
    """
    enc = netlist.encoding
    # rows: basis input 4 t + 2 c + program polarization
    inputs = np.zeros((8, len(netlist.modes)), dtype=int)
    for row, (t, c, p) in enumerate(itertools.product((H, V), repeat=3)):
        for port, pol in ((enc.target, t), (enc.control, c), (enc.program, p)):
            inputs[row, netlist.columns[Mode(port, pol)]] = 1
    outputs, amps = heralded_transfer(unitary, netlist.herald_pattern(), inputs)
    amps = amps.reshape(amps.shape[:-2] + (4, 2, len(outputs)))
    w_h = 1 / math.sqrt(2)
    w_v = complex(math.cos(phi), math.sin(phi)) / math.sqrt(2)
    columns = w_h * amps[..., 0, :] + w_v * amps[..., 1, :]
    if not np.isfinite(columns).all():
        raise ValueError("heralded amplitudes are not finite")
    columns[np.abs(columns) < PRUNE_THRESHOLD] = 0.0
    readout = _logical_readout(netlist, outputs)
    operators = np.ascontiguousarray((columns @ readout).swapaxes(-1, -2))
    # summed as `norm_squared` sums a branch: numpy's complex abs and
    # square can differ from Python's in the last bit
    flat = columns.reshape(-1, len(outputs)).tolist()
    probs = [sum(abs(a) ** 2 for a in col) for col in flat]
    return operators, np.array(probs).reshape(columns.shape[:-1])


def _logical_readout(netlist: Netlist, outputs: np.ndarray) -> np.ndarray:
    """(outputs x 4) 0/1 matrix mapping heralded outputs to logical |tc>.

    As in `heralded_output_amplitudes`: an output reads as |tc> when it
    holds exactly one photon on the target port (t = its polarization),
    exactly one on the control port and one in the detector mode.
    """
    enc = netlist.encoding

    def count(port: str, pol: Polarization) -> np.ndarray:
        return outputs[:, netlist.columns[Mode(port, pol)]]

    t_v, c_v = count(enc.target, V), count(enc.control, V)
    ok = (
        (count(enc.target, H) + t_v == 1)
        & (count(enc.control, H) + c_v == 1)
        & (count(enc.program, _detector_pol(netlist)) == 1)
    )
    readout = np.zeros((len(outputs), 4))
    readout[ok, (2 * t_v + c_v)[ok]] = 1.0
    return readout


def extract_gate(netlist: Netlist, phi: float) -> GateResult:
    """Heralded 4x4 operator from 3x3 permanents of the circuit matrix.

    The single-matrix case of `heralded_operators`, plus the process
    fidelity against diag(1, 1, 1, e^{i phi}).  The sequential Fock engine
    (`prepare_input`, `run_elements`, `project_herald`,
    `heralded_output_amplitudes`) computes the same map independently and
    is the reference for this one.
    """
    op, probs = heralded_operators(netlist, circuit_matrix(netlist), phi)
    fidelity = process_fidelity(op, ideal_cphase(phi))
    return GateResult(op, dict(zip(BASIS_LABELS, probs.tolist())), phi, fidelity)


def ideal_cphase(phi: float) -> np.ndarray:
    """diag(1, 1, 1, e^{i phi}) on (target tensor control)."""
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)]).astype(complex)


def process_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|Tr(A^dag B)|^2 / (Tr(A^dag A) Tr(B^dag B)); 1 iff A is proportional to B."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = float(np.real(np.trace(a.conj().T @ a)))
    nb = float(np.real(np.trace(b.conj().T @ b)))
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("process fidelity is undefined for a zero operator")
    overlap = np.trace(a.conj().T @ b)
    return float(abs(overlap) ** 2 / (na * nb))


def circuit_matrix(netlist: Netlist) -> np.ndarray:
    """Full single-photon mode matrix of the netlist, in transfer orientation.

    Raises NetlistError when an element cannot be realized or the
    elements do not compose to a unitary within 1e-12.
    """
    matrices = netlist.build_matrices()
    try:
        return compose_circuit_matrix(matrices, netlist.modes)
    except (ValueError, KeyError) as exc:
        raise NetlistError(exc.args[0]) from exc
