"""fockgate: heralded programmable-CPHASE gate workbench.

Simulates the three-photon polarization-encoded controlled-phase gate
over multi-mode Fock states (heralded, programmable phase), and carries
the coupled-mode design arithmetic for its integrated realization:
coupler-length solving, notch-rotator calibration, and fabrication
tolerance sweeps that feed imperfect devices back into the simulator.
"""

from .fock import (
    H,
    V,
    HeraldCondition,
    HeraldPattern,
    Mode,
    Polarization,
    PureState,
    modes_for_ports,
    norm_squared,
    program_state,
    project_herald,
    qubit_state,
    tensor,
)
from .elements import (
    ElementMatrix,
    amplitude_via_permanent,
    apply_element,
    compose_circuit_matrix,
    permanent,
    phase_shift,
    rotator_from_conversion,
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
    synthesize_imperfect_elements,
    tolerance_sweep,
)

__version__ = "0.1.0"
