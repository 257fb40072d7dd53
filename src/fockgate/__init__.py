"""fockgate: heralded programmable-CPHASE gate workbench.

Simulates the three-photon polarization-encoded controlled-phase gate
over multi-mode Fock states (heralded, programmable phase), and carries
the coupled-mode design arithmetic for its integrated realization:
coupler-length solving, notch-rotator calibration, and fabrication
tolerance sweeps that feed imperfect devices back into the simulator.

The package root exports what the commands and the netlist and physics
file formats use.  The reference the engine is tested against is the
module `fockgate.reference`.
"""

from .fock import (
    H,
    V,
    Mode,
    Polarization,
    PureState,
    modes_for_ports,
    norm_squared,
)
from .elements import (
    ElementMatrix,
    phase_shift,
    wave_plate,
)
from .gate import (
    ElementSpec,
    GateResult,
    HeraldTerm,
    Netlist,
    NetlistError,
    PortDecl,
    ProgramState,
    QubitEncoding,
    build_element,
    circuit_matrix,
    default_netlist,
    extract_gate,
    ideal_cphase,
    prepare_input,
    process_fidelity,
    run_heralded,
    spec,
)
from .design import (
    CouplerPhysics,
    LengthSolution,
    NotchAnchor,
    NotchCalibration,
    bar_power,
    cross_power,
    enumerate_v_perfect_lengths,
    solve_coupler_length,
    tolerance_sweep,
)

__version__ = "0.1.0"
