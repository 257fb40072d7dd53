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
permanents of the composed circuit matrix (`heralded_transfer`).  A
netlist lays its modes out by one rule, declared port order with H before
V, and finds the column of a port's mode from that port's index
(`Netlist.column`).  It is immutable and one circuit, so it derives
everything once and keeps it: from its ports, herald and encoding the
mode order, the basis inputs with the gather of their heralded transfer
and the logical readout; from its elements the realized steps
(`Netlist.steps`), the circuit composed from them and the heralded
amplitudes of the 8 basis inputs.  A new phase or new qubit amplitudes
cost only the linear combination and the readout.  `coupler_operators`
composes its steps with some couplers set by angle arrays, for each point
of a parameter sweep the circuit rows that the basis inputs' photons
enter, and reads the gate off that whole stack at once with
`heralded_operators`' readout.
The sequential Fock engine, `run_elements` followed by `project_herald`,
computes the same branches element by element; it is the reference the
tests and the acceptance checks hold the permanent engine to.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Sequence

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
    check_phase,
    check_qubit,
    modes_for_ports,
    norm_squared,
    program_amplitudes,
)
from .elements import (
    HADAMARD_MATRIX,
    PPBS_BARS,
    SQ3,
    WAVEPLATE_PRESETS,
    ElementMatrix,
    apply_element,
    check_circuits,
    column_placement,
    compose_rows,
    coupler_matrices,
    isometry_deviation,
    permanents,
    phase_shift,
    wave_plate,
)


class NetlistError(ValueError):
    """Raised when a netlist fails validation."""


PORT_ROLES = ("input", "output", "io", "internal", "loss", "detector", "program")


def _number(value: Any, what: str, error: type[ValueError] = NetlistError) -> int | float:
    """`value` if it is a finite int or float, not a bool; the one number rule of netlists and physics."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise error(f"{what} must be a finite number, got {value!r}")
    return value


# Element kinds: the number of ports each wires (a dump takes any number)
# and the rule of each parameter it accepts (see `_check_param`); any other
# key is refused.
ELEMENT_KINDS = {
    "pbs": (2, {"theta_h": "number", "theta_v": "number"}),
    "ppbs": (2, {"bar_h": "bar", "bar_v": "bar", "theta_h": "number", "theta_v": "number"}),
    "beamsplitter": (2, {"t_h": "number", "r_h": "number", "t_v": "number", "r_v": "number"}),
    "filter": (2, {"t_h": "bar", "t_v": "bar", "theta_h": "number", "theta_v": "number"}),
    "waveplate": (1, {"preset": "preset", "matrix": "matrix"}),
    "phaseshift": (1, {"phase_h": "number", "phase_v": "number"}),
    "detector": (1, {"rotated": "bool"}),
    "dump": (None, {}),
}

# The keys a kind needs: one of each group, the first named when all are missing.
_REQUIRED = {
    "beamsplitter": (("t_h",), ("r_h",)),
    "filter": (("t_h", "theta_h"), ("t_v", "theta_v")),
    "waveplate": (("preset", "matrix"),),
}


def _check_param(name: str, key: str, rule: str, value: Any) -> None:
    """Raise NetlistError naming element `name` and `key` unless `value` obeys `rule`.

    A number is `_number`'s, a bar a number in [0, 1], a preset a key of
    WAVEPLATE_PRESETS and a matrix 2 rows of 2 numbers or complex numbers.
    """
    what = f"element {name!r} parameter {key!r}"
    if rule == "preset":
        if not isinstance(value, str):
            raise NetlistError(f"{what} must be a string, got {value!r}")
        if value not in WAVEPLATE_PRESETS:
            raise NetlistError(f"{what} must name a preset ({', '.join(WAVEPLATE_PRESETS)}), got {value!r}")
    elif rule == "bool":
        if not isinstance(value, bool):
            raise NetlistError(f"{what} must be true or false")
    elif rule == "matrix":
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in value)):
            raise NetlistError(f"{what} must be 2 rows of 2 numbers, got {value!r}")
        for entry in (entry for row in value for entry in row):
            for part in (entry.real, entry.imag) if isinstance(entry, complex) else (entry,):
                _number(part, what)
    else:  # a number or a bar
        _number(value, what)
        if rule == "bar" and not 0.0 <= value <= 1.0:
            raise NetlistError(f"element {name!r}: bar amplitude {key} = {value!r} outside [0, 1]")


# Two-port couplers given by coupling angles or by bar amplitudes: the
# bar-amplitude parameter of each kind per polarization, with its default
# (None: the spec sets it, see `_REQUIRED`).  A PBS has none: its bars are
# those of the routing PBS, H passing and V crossing.
_BAR_PARAMS = {
    "pbs": ((None, 1.0), (None, 0.0)),
    "ppbs": (("bar_h", PPBS_BARS[0]), ("bar_v", PPBS_BARS[1])),
    "filter": (("t_h", None), ("t_v", None)),
}
COUPLER_KINDS = tuple(_BAR_PARAMS)


def _check_name(name: Any, what: str) -> None:
    """Raise NetlistError naming `what` unless `name` is a string."""
    if not isinstance(name, str):
        raise NetlistError(f"{what} {name!r} is not a string")


@dataclass(frozen=True)
class PortDecl:
    name: str
    role: str = "internal"

    def __post_init__(self):
        _check_name(self.name, "port name")
        if self.role not in PORT_ROLES:
            raise NetlistError(f"unknown port role {self.role!r} for {self.name!r}")


@dataclass(frozen=True)
class ElementSpec:
    """One device as data: kind, wired ports, kind-specific params.

    Checked when it is made, from a file or in Python, against its kind in
    ELEMENT_KINDS and `_REQUIRED`: a fault raises NetlistError naming the
    element and the parameter, so a spec that is made always realizes
    unless its matrix is not unitary.  A list-valued parameter is stored as
    nested tuples, so changing the list it was built from changes neither
    the spec nor a circuit realized from it.  An array, in a list too,
    raises NetlistError naming the parameter.  The name and each port are
    strings, and no port is wired twice.  The ports are stored as a tuple;
    a string there, which would name one port per character, raises
    NetlistError.
    """

    name: str
    kind: str
    ports: tuple[str, ...]
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        _check_name(self.name, "element name")
        if self.kind not in ELEMENT_KINDS:
            raise NetlistError(f"unknown element kind {self.kind!r} ({self.name})")
        arity, rules = ELEMENT_KINDS[self.kind]
        what = f"element {self.name!r} of kind {self.kind!r}"
        if isinstance(self.ports, str):
            raise NetlistError(f"{what} ports must be a list of port names, got the string {self.ports!r}")
        object.__setattr__(self, "ports", tuple(self.ports))
        for port in self.ports:
            _check_name(port, f"element {self.name!r} port")
        if arity is not None and len(self.ports) != arity:
            raise NetlistError(f"{what} needs {arity} port(s), got {len(self.ports)}")
        if len(set(self.ports)) != len(self.ports):
            raise NetlistError(f"element {self.name!r} wires a port twice")
        params = tuple((key, _frozen(value, self.name, key)) for key, value in self.params)
        for key, value in self.params:
            if key not in rules:
                raise NetlistError(f"{what} has unknown parameter {key!r}")
            _check_param(self.name, key, rules[key], value)
        keys = {key for key, _ in params}
        for group in _REQUIRED.get(self.kind, ()):
            if keys.isdisjoint(group):
                raise NetlistError(f"{what} lacks parameter {group[0]!r}")
        object.__setattr__(self, "params", params)

    @property
    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def with_params(self, **updates: Any) -> "ElementSpec":
        merged = dict(self.params)
        merged.update(updates)
        return replace(self, params=tuple(sorted(merged.items())))


def _frozen(value: Any, name: str, key: str) -> Any:
    """`value` with every list or tuple level a tuple; an array raises NetlistError."""
    if isinstance(value, np.ndarray):
        raise NetlistError(
            f"element {name!r} parameter {key!r} holds an array of shape "
            f"{value.shape}; an element is one device"
        )
    if isinstance(value, (list, tuple)):
        value = tuple(_frozen(v, name, key) for v in value)
    return value


def spec(name: str, kind: str, ports: Sequence[str], **params: Any) -> ElementSpec:
    return ElementSpec(name, kind, ports, tuple(sorted(params.items())))


@dataclass(frozen=True)
class HeraldTerm:
    """Exact-count condition: `count` photons total over ports x pols.

    Ports given as a string or naming a non-string, a count that is not a
    non-negative int, or a pol that is not a Polarization raise NetlistError.
    """

    ports: tuple[str, ...]
    pols: tuple[Polarization, ...]
    count: int

    def __post_init__(self):
        if isinstance(self.ports, str):
            raise NetlistError(f"herald term ports must be a list of port names, got the string {self.ports!r}")
        for port in self.ports:
            _check_name(port, "herald term port")
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise NetlistError(f"herald count must be an integer, got {self.count!r}")
        if self.count < 0:
            raise NetlistError("herald count must be non-negative")
        for pol in self.pols:
            if not isinstance(pol, Polarization):
                raise NetlistError(f"herald polarization {pol!r} is not a Polarization (H or V)")


@dataclass(frozen=True)
class QubitEncoding:
    """The ports of the target, control and program photons: three distinct port names."""

    target: str
    control: str
    program: str

    def __post_init__(self):
        for role in ("target", "control", "program"):
            _check_name(getattr(self, role), f"encoding {role}")
        if len({self.target, self.control, self.program}) != 3:
            raise NetlistError("target, control and program ports must be distinct")


class Step(NamedTuple):
    """One realized element: its spec, its read-only matrix and `at`, its columns' `column_placement`."""

    spec: ElementSpec
    matrix: np.ndarray
    at: slice | np.ndarray


@dataclass(frozen=True)
class Netlist:
    """One validated circuit; it derives its structure and realizes its elements once.

    Its modes are laid out by one rule, declared port order with H before
    V: mode (port, pol) is at `column(port, pol)`, twice the port's index
    plus 1 for V, and every structure below finds its columns so; `Mode`
    objects appear only in `modes` and the states on them.  Everything a
    netlist derives is kept on the instance, read-only, and computed on
    first use, but for the port index that validation reads.  From its
    ports, herald and encoding: `modes`; `basis_inputs`, the occupations
    of the 8 three-photon basis inputs, row 4 t + 2 c + p for target t,
    control c and program p (0 = H); `basis_gather`, what
    `heralded_transfer` gathers for them; and `readout`, the (outputs x 4)
    0/1 matrix that reads those outputs as logical |tc>.  From its
    elements: the `steps` (each element realized and placed once), the
    circuit matrix `compose` makes of them and the (8, outputs) heralded
    amplitudes of the basis inputs.  None of it takes part in equality,
    hashing or pickling: `replace`, `with_overrides`, `pickle` and `copy`
    make a new instance that derives its own.
    """

    ports: tuple[PortDecl, ...]
    elements: tuple[ElementSpec, ...]
    herald: tuple[HeraldTerm, ...]
    encoding: QubitEncoding

    def __post_init__(self):
        self.validate()

    def __reduce__(self):
        return (Netlist, (self.ports, self.elements, self.herald, self.encoding))

    # -- structure ---------------------------------------------------------

    @cached_property
    def modes(self) -> tuple[Mode, ...]:
        return modes_for_ports(self.port_names)

    @cached_property
    def _port_index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.port_names)}

    def column(self, port: str, pol: Polarization) -> int:
        """Mode (port, pol)'s index in `modes`; KeyError for an undeclared port, ValueError for a non-pol."""
        return 2 * self._port_index[port] + (H, V).index(pol)

    @property
    def port_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.ports)

    def element(self, name: str) -> ElementSpec:
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(f"no element named {name!r}")

    def validate(self) -> None:
        """Raise NetlistError for a fault between parts; each part checked itself when it was made."""
        declared = self._port_index
        if len(declared) != len(self.ports):
            raise NetlistError("duplicate port declarations")
        seen = set()
        for el in self.elements:
            if el.name in seen:
                raise NetlistError(f"duplicate element name {el.name!r}")
            seen.add(el.name)
            for p in el.ports:
                if p not in declared:
                    raise NetlistError(f"element {el.name!r} wired to undeclared port {p!r}")
        if not self.herald:
            raise NetlistError("herald pattern is empty")
        for term in self.herald:
            for p in term.ports:
                if p not in declared:
                    raise NetlistError(f"herald references unknown port {p!r}")
        for qport in (self.encoding.target, self.encoding.control, self.encoding.program):
            if qport not in declared:
                raise NetlistError(f"encoding references unknown port {qport!r}")

    def input_occupation(
        self,
        target: Polarization | None,
        control: Polarization | None,
        program: Polarization | None,
    ) -> FockVector:
        """Occupations over `modes` with one photon on each encoded port given a polarization.

        None leaves that port in vacuum.
        """
        vec = [0] * len(self.modes)
        enc = self.encoding
        for port, pol in ((enc.target, target), (enc.control, control), (enc.program, program)):
            if pol is not None:
                vec[self.column(port, pol)] = 1
        return tuple(vec)

    @cached_property
    def basis_inputs(self) -> tuple[FockVector, ...]:
        return tuple(self.input_occupation(*pols) for pols in itertools.product((H, V), repeat=3))

    @cached_property
    def _basis_rows(self) -> dict[FockVector, int]:
        return {vec: k for k, vec in enumerate(self.basis_inputs)}

    @cached_property
    def detector_pol(self) -> Polarization:
        """Polarization of the detector mode, V unless a herald term counts one on the program port.

        The first herald term on the program port that counts one polarization gives it.
        """
        for term in self.herald:
            if self.encoding.program in term.ports and len(term.pols) == 1:
                return term.pols[0]
        return V

    def herald_pattern(self) -> HeraldPattern:
        """The herald terms as exact-count conditions on the columns of `modes`."""
        return HeraldPattern(tuple(
            HeraldCondition(
                tuple(self.column(p, pol) for p in term.ports for pol in term.pols),
                term.count,
            )
            for term in self.herald
        ))

    @cached_property
    def basis_gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        gather = _gather(len(self.modes), self.herald_pattern(), self.basis_inputs)
        for array in gather:
            array.flags.writeable = False
        return gather

    @cached_property
    def readout(self) -> np.ndarray:
        # as in `heralded_output_amplitudes`: an output reads as |tc> when it
        # holds exactly one photon on the target port (t = its polarization),
        # exactly one on the control port and one in the detector mode
        outputs, enc = self.basis_gather[2], self.encoding

        def count(port: str, pol: Polarization) -> np.ndarray:
            return outputs[:, self.column(port, pol)]

        t_v, c_v = count(enc.target, V), count(enc.control, V)
        ok = (
            (count(enc.target, H) + t_v == 1)
            & (count(enc.control, H) + c_v == 1)
            & (count(enc.program, self.detector_pol) == 1)
        )
        readout = np.zeros((len(outputs), 4))
        readout[ok, (2 * t_v + c_v)[ok]] = 1.0
        readout.flags.writeable = False
        return readout

    # -- realization -------------------------------------------------------

    def build_matrices(self) -> list[ElementMatrix]:
        """Element matrices in application order (detector basis rotation included).

        Every spec was checked when it was made, so only an element whose
        matrix is not unitary raises NetlistError naming it.
        """
        return [m for _, m in self._realized()]

    def _realized(self) -> list[tuple[ElementSpec, ElementMatrix]]:
        """Each element that acts on modes with its matrix, as `build_matrices` reports them."""
        out = []
        for el in self.elements:
            try:
                m = build_element(el)
            except ValueError as exc:  # not unitary
                raise NetlistError(f"element {el.name!r}: {exc}") from exc
            if m is not None:
                out.append((el, m))
        return out

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        """The elements that act on modes, each realized once, in application order.

        A step holds the element's spec, a read-only view of its matrix and
        the placement of its modes' columns, read-only, so no composition
        resolves them again.  An element whose matrix is not unitary raises
        NetlistError naming it, as `build_matrices` does.
        """
        steps = []
        for el, m in self._realized():
            matrix = m.matrix.view()
            matrix.flags.writeable = False
            columns = np.array([self.column(mode.port, mode.pol) for mode in m.modes])
            columns.flags.writeable = False
            steps.append(Step(el, matrix, column_placement(columns)))
        return tuple(steps)

    def compose(self, stacks: Mapping[int, np.ndarray] = MappingProxyType({})) -> np.ndarray:
        """The circuit matrix of `steps`, composed in step order by `compose_rows`.

        `stacks` maps a step index to matrices that take the place of that
        step's own, a stack (N, k, k) for N circuits at once; the composition
        and its association order stay those of the netlist's own circuit.
        The steps' placements were resolved with them, so only the result is
        checked (`check_circuits`): one that is not unitary within 1e-12
        raises NetlistError.
        """
        circuits = self._compose_rows(stacks)
        try:
            check_circuits(circuits)
        except ValueError as exc:
            raise NetlistError(exc.args[0]) from exc
        return circuits

    def _compose_rows(self, stacks: Mapping[int, np.ndarray], rows: np.ndarray | None = None) -> np.ndarray:
        """Rows `rows` (all when None) of the circuits `compose` makes, unchecked."""
        matrices = [stacks.get(k, step.matrix) for k, step in enumerate(self.steps)]
        return compose_rows(matrices, [step.at for step in self.steps], len(self.modes), rows)

    @cached_property
    def _couplers(self) -> dict[str, tuple[int, bool]]:
        """Each coupler step's index in `steps` and whether it is a pbs, by element name."""
        return {step.spec.name: (k, step.spec.kind == "pbs")
                for k, step in enumerate(self.steps) if step.spec.kind in COUPLER_KINDS}

    @cached_property
    def _row_block(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The circuit rows `basis_gather` reads, ascending, and that gather renumbered to them."""
        rows, *rest = self.basis_gather
        block = np.array(sorted(set(rows.flat)))  # np.unique raises the peak RSS by 0.6 MB
        return block, (np.searchsorted(block, rows), *rest)

    @cached_property
    def _steps_near_unitary(self) -> bool:
        """Whether the steps' `isometry_deviation`s sum to at most _NEAR_UNITARY (see there)."""
        return sum(isometry_deviation(step.matrix) for step in self.steps) <= _NEAR_UNITARY

    @cached_property
    def _circuit(self) -> np.ndarray:
        unitary = self.compose()
        unitary.flags.writeable = False
        return unitary

    @cached_property
    def _basis_amplitudes(self) -> np.ndarray:
        amps = _gathered_transfer(self._circuit, self.basis_gather)
        amps.flags.writeable = False
        return amps

    def with_overrides(self, overrides: Mapping[str, ElementSpec]) -> "Netlist":
        """Replace named elements (used to inject imperfect devices)."""
        for name in overrides:
            self.element(name)  # raises KeyError on unknown name
        new_elements = tuple(
            overrides.get(el.name, el) for el in self.elements
        )
        return replace(self, elements=new_elements)


def _coupler_setting(el: ElementSpec) -> tuple[bool, tuple[float, float]]:
    """How a pbs, ppbs or filter is set, read in this one place.

    Returns (True, (theta_h, theta_v)) for a coupler that sets either angle,
    a polarization without its angle taking the arccosine of its bar, and
    otherwise (False, (bar_h, bar_v)).  The bars are a filter's `t_h`/`t_v`,
    a PPBS's `bar_h`/`bar_v` (default `elements.PPBS_BARS`) and (1, 0) for
    a PBS; the spec's rules guarantee each is there and in [0, 1].
    """
    p = el.param_dict
    by_angle = "theta_h" in p or "theta_v" in p
    values = []
    for theta_key, (bar_key, default) in zip(("theta_h", "theta_v"), _BAR_PARAMS[el.kind]):
        if theta_key in p:
            values.append(p[theta_key])
        else:
            bar = p.get(bar_key, default)
            values.append(math.acos(bar) if by_angle else bar)
    return by_angle, tuple(values)


def coupler_angles(el: ElementSpec) -> tuple[float, float]:
    """Coupling angles (theta_h, theta_v) of a pbs, ppbs or filter; bar amplitude cos(theta).

    Each angle is the element's own `theta_h`/`theta_v` where it sets one,
    otherwise the arccosine of its bar amplitude (see `_coupler_setting`).
    A PBS without angles is the routing PBS, (0, pi/2) in reflection form.
    An element of another kind raises ValueError.
    """
    if el.kind not in COUPLER_KINDS:
        raise ValueError(f"element kind {el.kind!r} is not a coupler")
    by_angle, values = _coupler_setting(el)
    return values if by_angle else (math.acos(values[0]), math.acos(values[1]))


def build_element(el: ElementSpec) -> ElementMatrix | None:
    """Realize one ElementSpec as an ElementMatrix (None for pure markers).

    The matrix acts on `modes_for_ports(el.ports)`.  A two-port coupler is
    filled by `coupler_matrices` from (bar, cross) pairs: the cosines and
    sines of its angles when it sets one, otherwise exact pairs, with
    cross = sqrt(1 - bar^2) for a pbs, ppbs or filter and a beam
    splitter's own (t, r).  A pbs has its V block in reflection form.  The
    spec's parameters were checked when it was made, so only physics fails
    here, with ValueError: a beam splitter with t^2 + r^2 != 1 or a wave
    plate `matrix` that is not unitary within 1e-12.
    """
    p = el.param_dict
    if el.kind in COUPLER_KINDS:
        by_angle, values = _coupler_setting(el)
        if by_angle:
            thetas = np.array(values, float)
            bars, crosses = np.cos(thetas), np.sin(thetas)
        else:
            bars, crosses = values, [math.sqrt(max(0.0, 1.0 - bar * bar)) for bar in values]
        return _filled(el.ports, bars, crosses, el.kind == "pbs")
    if el.kind == "beamsplitter":
        bars = (p["t_h"], p.get("t_v", p["t_h"]))
        crosses = (p["r_h"], p.get("r_v", p["r_h"]))
        for t, r, pol in zip(bars, crosses, "HV"):
            if abs(t * t + r * r - 1.0) > 1e-12:
                raise ValueError(f"{pol} amplitudes violate t^2 + r^2 = 1: t={t}, r={r}")
        return _filled(el.ports, bars, crosses, False)
    if el.kind == "waveplate":
        matrix = np.asarray(p["matrix"], dtype=complex) if "matrix" in p else p["preset"]
        return wave_plate(el.ports[0], matrix)
    if el.kind == "phaseshift":
        return phase_shift(
            el.ports[0], phase_h=p.get("phase_h", 0.0), phase_v=p.get("phase_v", 0.0)
        )
    if el.kind == "detector" and p.get("rotated", False):
        # rotated detectors measure in the +-45 degree basis; the basis
        # change is part of the detector assembly, applied before the
        # heralded projection onto the port's V mode.
        return wave_plate(el.ports[0], HADAMARD_MATRIX)
    return None  # an unrotated detector or a dump only marks its ports


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
        spec("PPBS", "ppbs", ("L", "C"), bar_h=PPBS_BARS[0], bar_v=PPBS_BARS[1]),
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
    the program photon is (|H> + e^{i phi}|V>)/sqrt(2).  A phase that is
    not finite raises ValueError naming phi; then each photon's amplitudes
    must pass `fock.check_qubit`, checked target first.  The
    state lives on `netlist.modes` and its terms are the netlist's basis
    inputs.  An amplitude is target x control x program, multiplied in that
    order as `tensor` multiplies the states `qubit_state` and
    `program_state` build, which keep an amplitude as a complex and drop it
    below PRUNE_THRESHOLD.  Its occupations are those basis inputs, so
    the state comes from `PureState`'s core, which checks the amplitudes.
    """
    kept = []
    for alpha, beta in (target, control, program_amplitudes(program.phi)):
        check_qubit(alpha, beta)
        kept.append([(k, complex(a)) for k, a in enumerate((alpha, beta)) if abs(a) >= PRUNE_THRESHOLD])
    basis = netlist.basis_inputs
    terms = {
        basis[4 * t + 2 * c + p]: at * ac * ap
        for (t, at), (c, ac), (p, ap) in itertools.product(*kept)
    }
    return PureState._from_valid(netlist.modes, terms)


def extend_state(state: PureState, netlist: Netlist) -> PureState:
    """Re-express a state on `netlist.modes` (vacuum elsewhere).

    Raises KeyError for a state mode the netlist does not declare.
    """
    mapping = []
    for m in state.modes:
        if m.port not in netlist._port_index:
            raise KeyError(f"mode {m!r} is not a mode of the netlist")
        mapping.append(netlist.column(m.port, m.pol))
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
    A group of basis inputs, found through the netlist's `_basis_rows`, reads
    the netlist's kept basis amplitudes; any other group gets a fresh
    transfer.  Amplitudes below PRUNE_THRESHOLD
    are dropped.  Returns the sub-normalized heralded branch and the herald
    probability, its squared norm.  `run_elements` followed by
    `project_herald` computes the same branch independently and is the
    reference for this one.
    """
    if state.modes != netlist.modes:
        state = extend_state(state, netlist)
    groups: dict[int, list[tuple[FockVector, complex]]] = {}
    for vec, amp in state.items():
        groups.setdefault(sum(vec), []).append((vec, amp))
    terms: dict[FockVector, complex] = {}
    for group in groups.values():
        vecs, amps = zip(*group)
        try:
            picked = [netlist._basis_rows[vec] for vec in vecs]
        except KeyError:  # not all basis inputs
            outputs, transfer = heralded_transfer(circuit_matrix(netlist), netlist.herald_pattern(), vecs)
        else:
            outputs, transfer = netlist.basis_gather[2], netlist._basis_amplitudes[picked]
        branch_amps = np.array(amps) @ transfer
        terms.update(zip(map(tuple, outputs.tolist()), branch_amps.tolist()))
    # the outputs are occupations the gather enumerated on `netlist.modes`
    branch = PureState._from_valid(netlist.modes, terms, subnormalized=True)
    return branch, norm_squared(branch)


def heralded_transfer(
    unitary: np.ndarray, pattern: HeraldPattern, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes from n-photon input occupations into the outputs `pattern` accepts.

    `unitary` is one circuit matrix (n_modes, n_modes) or a stack of them
    (..., n_modes, n_modes).  `inputs` has one row of occupation numbers
    per input, over the modes of `unitary`, and every row holds the same
    number n of photons; no input at all raises ValueError.  Returns the
    accepted n-photon output occupations, one row each in ascending
    lexicographic order (the order `PureState` keeps its terms in), and the
    (..., inputs, outputs) amplitude array.  The amplitude from n to m is
    perm(U[rows repeated n_i times, cols repeated m_j times]) divided by
    sqrt(prod n_i! prod m_j!) (Aaronson and Arkhipov 2011).
    """
    gather = _gather(unitary.shape[-1], pattern, inputs)
    return gather[2], _gathered_transfer(unitary, gather)


def _gather(
    n_modes: int, pattern: HeraldPattern, inputs: Sequence[FockVector]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What `heralded_transfer` gathers for `inputs`; it depends on the structure only.

    Returns the input photons' modes (inputs, n), the accepted outputs'
    sorted modes (outputs, n) and occupations (outputs, n_modes), ascending,
    and the norms sqrt(prod n_i! prod m_j!) (inputs, outputs).
    """
    inputs = np.asarray(inputs, dtype=int)
    if not len(inputs):
        raise ValueError("heralded transfer needs at least one input")
    n = int(inputs[0].sum())
    if np.any(inputs.sum(axis=1) != n):
        raise ValueError("heralded transfer inputs must hold the same photon number")
    rows = np.repeat(np.tile(np.arange(n_modes), len(inputs)), inputs.ravel())
    rows = rows.reshape(len(inputs), n)
    # descending mode-index tuples are ascending occupation vectors
    cols = itertools.combinations_with_replacement(range(n_modes), n)
    cols = np.array(list(cols)[::-1], dtype=int)
    keep = np.ones(len(cols), dtype=bool)
    for cond in pattern.conditions:
        weight = np.bincount(np.asarray(cond.mode_indices, dtype=int), minlength=n_modes)
        keep &= weight[cols].sum(axis=1) == cond.count
    cols = cols[keep]
    outputs = (cols[:, :, None] == np.arange(n_modes)).sum(axis=1)
    factorial = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    norm = np.sqrt(factorial[inputs].prod(axis=1)[:, None] * factorial[outputs].prod(axis=1))
    return rows, cols, outputs, norm


def _gathered_transfer(unitary: np.ndarray, gather: tuple[np.ndarray, ...]) -> np.ndarray:
    """The (..., inputs, outputs) amplitudes of `heralded_transfer` from its `_gather`."""
    rows, cols, _, norm = gather
    return permanents(unitary[..., rows[:, None, :, None], cols[None, :, None, :]]) / norm


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


def _filled(
    ports: tuple[str, ...], bars: Sequence[float], crosses: Sequence[float], v_reflect: bool
) -> ElementMatrix:
    """The coupler on `ports` that `coupler_matrices` fills from (bar, cross) pairs, H then V."""
    matrix = coupler_matrices(np.array(bars, float), np.array(crosses, float), v_reflect)
    return ElementMatrix(modes_for_ports(ports), matrix)


def heralded_operators(netlist: Netlist, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Heralded 4x4 operator and herald probabilities of the netlist's circuit.

    A basis input puts one photon on each of the target, control and
    program ports; the netlist keeps its amplitudes into the three-photon
    outputs the herald accepts.  The program photon (|H> + e^{i phi}|V>)/sqrt(2)
    enters linearly: each column is (A_H + e^{i phi} A_V)/sqrt(2), so one
    circuit matrix serves every phase; a phase that is not finite raises
    ValueError naming phi.  Amplitudes below PRUNE_THRESHOLD are dropped, a
    non-finite amplitude raises ValueError, and each herald probability is
    the squared norm of its column, summed in the heralded branch's term
    order.  The logical outputs are read with `heralded_output_amplitudes`'s
    rule, here as one (outputs x 4) 0/1 matrix.  An operator that is zero,
    because no basis input heralds a logical output, raises NetlistError.
    Returns the operator (4, 4), columns ordered |00>, |01>, |10>, |11>, and
    the probabilities (4,) in the same order.
    """
    return _basis_operators(netlist.readout, netlist._basis_amplitudes, phi)


# `coupler_operators` does not check its circuits when the Frobenius norms
# ||M M^dag - 1||_F of the netlist's steps sum to at most this.  Frobenius
# bounds the spectral norm, so the product of those steps and finite-angle
# cos/sin coupler blocks (a few ulps off each) deviates from unitarity in
# spectral norm by at most prod(1 + deviation) - 1 over its factors, about
# 1e-13, and the rounding of its products adds orders less (Higham, Accuracy
# and Stability of Numerical Algorithms, ch. 3).  No entry of M M^dag - 1
# exceeds that norm, so no circuit can fail `Netlist.compose`'s 1e-12 check.
_NEAR_UNITARY = 1e-13


def coupler_operators(
    netlist: Netlist, couplers: Sequence[str], thetas: np.ndarray, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """`heralded_operators` of the netlist at N points, with the named couplers set by angles.

    `couplers` names pbs, ppbs or filter elements, and `thetas`
    (N, couplers, 2) holds their (theta_h, theta_v) at each point; a name
    that is not a coupler step of the netlist or is repeated, or angles of
    another shape, raise ValueError saying so, and N = 0 gives empty
    results.  With no couplers named, every point reads the netlist's own
    kept basis amplitudes.  Otherwise one `coupler_matrices` call fills
    their matrices (reflection form for a pbs, as `build_element` builds
    it).  Their entries are cosines and sines of the angles, so a block is
    an isometry to within a few ulps exactly when its angles are finite: a
    non-finite angle raises NetlistError("coupler is not an isometry:
    deviation nan").  The blocks replace those steps' matrices, and only
    the circuit rows that the basis gather reads, the input photons' modes,
    are composed, one (N, rows, modes) block: each row of a product depends
    on that row alone.  The netlist decides once whether its circuits need
    the 1e-12 unitarity check (see `_NEAR_UNITARY`); if they do, the full
    circuits are composed and checked by `Netlist.compose` first.  Point k
    equals `heralded_operators` on the netlist whose couplers carry the
    angles `thetas[k]`, bit for bit.
    """
    slots = netlist._couplers
    for k, name in enumerate(couplers):
        if name not in slots:
            raise ValueError(f"{name!r} is not a coupler step of the netlist")
        if name in couplers[:k]:
            raise ValueError(f"coupler {name!r} is named twice")
    if np.ndim(thetas) != 3 or np.shape(thetas)[1:] != (len(couplers), 2):
        raise ValueError(
            f"coupler angles of shape {np.shape(thetas)} are not (points, {len(couplers)}, 2)"
        )
    if not np.isfinite(thetas).all():
        raise NetlistError("coupler is not an isometry: deviation nan")
    if not couplers:  # every point is the netlist's own circuit
        kept = netlist._basis_amplitudes
        return _basis_operators(netlist.readout, np.broadcast_to(kept, (len(thetas),) + kept.shape), phi)
    steps, reflect = zip(*(slots[name] for name in couplers))
    blocks = coupler_matrices(np.cos(thetas), np.sin(thetas), np.array(reflect))
    stacks = {k: blocks[:, c] for c, k in enumerate(steps)}
    rows, gather = netlist._row_block
    if netlist._steps_near_unitary:
        circuits = netlist._compose_rows(stacks, rows)
    else:
        circuits = netlist.compose(stacks)[:, rows]
    return _basis_operators(netlist.readout, _gathered_transfer(circuits, gather), phi)


def _basis_operators(
    readout: np.ndarray, amps: np.ndarray, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """The readout of `heralded_operators` from the (..., 8, outputs) basis amplitudes."""
    w_h, w_v = program_amplitudes(phi)
    amps = amps.reshape(amps.shape[:-2] + (4, 2, amps.shape[-1]))
    columns = w_h * amps[..., 0, :] + w_v * amps[..., 1, :]
    if not np.isfinite(columns).all():
        raise ValueError("heralded amplitudes are not finite")
    columns[np.abs(columns) < PRUNE_THRESHOLD] = 0.0
    operators = _read_logical(columns, readout)
    if not operators.any(axis=(-2, -1)).all():
        raise NetlistError("no basis input heralds a logical output (a zero operator)")
    return operators, _squared_norms(columns)


def _read_logical(columns: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """The operators (..., 4, 4) `(columns @ readout)` with the last two axes swapped.

    `columns` (..., 4, outputs) holds each basis column's output
    amplitudes and `readout` (outputs, 4) is the netlist's 0/1 readout.  The
    product is taken once over the flattened stack, one (points x 4,
    outputs) matrix, rather than matrix by matrix.  Every term is an
    amplitude times 0 or 1, and each logical output adds its outputs in
    the same order either way, so the result is the per-matrix product's
    bit for bit.
    """
    lead = columns.shape[:-1]
    flat = columns.reshape(math.prod(lead), columns.shape[-1]) @ readout
    return np.ascontiguousarray(flat.reshape(lead + (4,)).swapaxes(-1, -2))


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis of a complex array, as `norm_squared` sums a state.

    Bit for bit `sum(abs(a) ** 2 for a in row)` of each row: Python's abs
    of a complex is `hypot`, which `np.hypot` matches; its `** 2` is libm's
    `pow`, which `np.float_power(m, 2.0)` calls too (`np.square`, `m * m`
    and `np.power(m, 2.0)` round differently in the last bit for about 0.1%
    of values); and the sum adds in row order, as `cumsum` does.
    """
    if z.shape[-1] == 0:
        return np.zeros(z.shape[:-1])
    squares = np.float_power(np.hypot(z.real, z.imag), 2.0)
    return squares.cumsum(axis=-1)[..., -1]


def extract_gate(netlist: Netlist, phi: float) -> GateResult:
    """Heralded 4x4 operator from 3x3 permanents of the circuit matrix.

    `heralded_operators` of the netlist's circuit, plus the process
    fidelity against diag(1, 1, 1, e^{i phi}); only the first call on a
    netlist computes permanents.  The sequential Fock engine
    (`prepare_input`, `run_elements`, `project_herald`,
    `heralded_output_amplitudes`) computes the same map independently and
    is the reference for this one.
    """
    op, probs = heralded_operators(netlist, phi)
    # `heralded_operators` refused a non-finite or zero operator
    fidelity = _fidelity(op, ideal_cphase(phi))
    return GateResult(op, dict(zip(BASIS_LABELS, probs.tolist())), fidelity)


def ideal_cphase(phi: float) -> np.ndarray:
    """diag(1, 1, 1, e^{i phi}) on (target tensor control); phi must be finite (`check_phase`)."""
    check_phase(phi)
    ideal = np.zeros((4, 4), dtype=complex)
    ideal[0, 0] = ideal[1, 1] = ideal[2, 2] = 1.0
    ideal[3, 3] = cmath.exp(1j * phi)
    return ideal


# `process_fidelity` rescales an operator whose largest real or imaginary part
# lies outside [2^-k, 2^k].  With both n x n operators in range,
# Tr(A^dag A) Tr(B^dag B) and |Tr(A^dag B)|^2 lie below n^4 2^(4k + 2), and
# a non-zero Tr(A^dag A) Tr(B^dag B) above 2^(-4k): normal doubles for k = 200
# and any n below 2^50.  (At k = 400 the product reaches 2^1600 and overflows.)
_FIDELITY_SCALE_EXPONENT = 200


def process_fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """|Tr(A^dag B)|^2 / (Tr(A^dag A) Tr(B^dag B)); 1 iff A is proportional to B.

    A and B are square operators of one size, or stacks of them whose
    leading axes broadcast.  Two operators give a float, stacks an array
    over the broadcast leading axes, each entry bit for bit the fidelity of
    its own pair.  Operators of different or non-square shapes, a non-finite
    entry and a zero operator raise ValueError.

    Checks, then core: after those checks, an operator whose largest real
    or imaginary part lies outside [2^-200, 2^200] is multiplied by a power
    of two, which the fidelity does not depend on, so that no norm
    overflows or underflows; an operator in that range is used as given.
    The core, `_fidelity`, then does the arithmetic.  `extract_gate` and
    `tolerance_sweep` call the core directly: their operators come from
    `heralded_operators` or `coupler_operators`, which refuse a non-finite
    or zero operator, their entries are heralded amplitudes of a unitary
    circuit, between PRUNE_THRESHOLD and sqrt(2) in size, and their ideal
    is `ideal_cphase`'s.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(
            f"process fidelity needs square operators of one size, got {a.shape} and {b.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("process fidelity is undefined for a non-finite operator")
    return _fidelity(_in_scale(a), _in_scale(b))


def _in_scale(op: np.ndarray) -> np.ndarray:
    """The finite `op` with each operator of the stack in `process_fidelity`'s range.

    An operator whose largest real or imaginary part is already in
    [2^-200, 2^200] is left as it is; one outside is multiplied, exactly, by
    the power of two that brings that part into [1/2, 1).  A zero operator
    raises ValueError.
    """
    peak = np.maximum(np.abs(op.real), np.abs(op.imag)).max(axis=(-2, -1), initial=0.0)
    if not (peak > 0.0).all():
        raise ValueError("process fidelity is undefined for a zero operator")
    limit = 2.0 ** _FIDELITY_SCALE_EXPONENT
    outside = (peak > limit) | (peak < 1.0 / limit)
    if not outside.any():
        return op
    shift = np.where(outside, -np.frexp(peak)[1], 0)[..., None, None]
    scaled = np.empty_like(op)
    scaled.real = np.ldexp(op.real, shift)
    scaled.imag = np.ldexp(op.imag, shift)
    return scaled


def _fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """`process_fidelity` of complex operators that pass its checks and lie in its range."""
    a_dag = a.conj().swapaxes(-1, -2)
    na = (a_dag @ a).trace(axis1=-2, axis2=-1).real
    nb = (b.conj().swapaxes(-1, -2) @ b).trace(axis1=-2, axis2=-1).real
    overlap = (a_dag @ b).trace(axis1=-2, axis2=-1)
    fidelity = _squared_norms(overlap[..., None]) / (na * nb)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def circuit_matrix(netlist: Netlist) -> np.ndarray:
    """The netlist's one single-photon mode matrix, in transfer orientation.

    Composed on the first call and kept on the netlist as a read-only
    array.  Raises NetlistError when an element's matrix or the circuit
    the elements compose is not unitary within 1e-12.
    """
    return netlist._circuit
