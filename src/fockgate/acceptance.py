"""Acceptance checks for the gate simulator and design tools.

Each check returns (name, passed, detail).  The CLI `check` command runs
the full battery and prints one line per criterion; the test suite calls
the same functions so there is a single source of truth for tolerances.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np

from .fock import (
    H,
    V,
    HeraldPattern,
    Mode,
    PureState,
    modes_for_ports,
    norm_squared,
    project_herald,
)
from .elements import (
    HADAMARD_MATRIX,
    HWP1_MATRIX,
    wave_plate,
)
from .gate import (
    COUPLER_KINDS,
    ElementSpec,
    Netlist,
    build_element,
    circuit_matrix,
    default_netlist,
    extract_gate,
    spec,
)
from .design import (
    COUPLER_DESIGNS,
    CouplerPhysics,
    enumerate_v_perfect_lengths,
    solve_coupler_length,
    tolerance_sweep,
)
# imported by name: perfbench/selftest.py patches `acceptance.run_elements` (ROADMAP item 1a)
from .reference import amplitude_via_permanent, apply_element, run_elements

PHI_SWEEP = (0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2)

CheckResult = tuple[str, bool, str]


def check_cphase_correctness(netlist: Netlist | None = None) -> CheckResult:
    """Criterion 1: diagonal operator, phase map phi, fidelity >= 1 - 1e-9."""
    nl = netlist or default_netlist()
    start = time.perf_counter()
    worst_off = 0.0
    worst_phase = 0.0
    worst_fid = 1.0
    for phi in PHI_SWEEP:
        res = extract_gate(nl, phi)
        worst_off = max(worst_off, res.max_offdiagonal)
        err = abs((res.measured_phase - phi + math.pi) % (2 * math.pi) - math.pi)
        # np.maximum keeps a NaN error (undefined phase); max() may drop it
        worst_phase = float(np.maximum(worst_phase, err))
        worst_fid = min(worst_fid, res.fidelity)
    elapsed = time.perf_counter() - start
    ok = worst_off < 1e-10 and worst_phase <= 1e-9 and worst_fid >= 1 - 1e-9 and elapsed < 1.0
    return (
        "cphase_correctness",
        ok,
        f"max offdiag {worst_off:.2e}, max phase error {worst_phase:.2e}, "
        f"min fidelity {worst_fid:.12f}, runtime {elapsed:.3f}s",
    )


def check_success_probability(netlist: Netlist | None = None) -> CheckResult:
    """Criterion 2: herald probability 1/48 within 1e-9, constant over phi."""
    nl = netlist or default_netlist()
    worst = 0.0
    for phi in PHI_SWEEP:
        res = extract_gate(nl, phi)
        for prob in res.herald_probability.values():
            worst = max(worst, abs(prob - 1.0 / 48.0))
    ok = worst <= 1e-9
    return (
        "success_probability",
        ok,
        f"max |p - 1/48| = {worst:.2e} over basis inputs x phi sweep",
    )


def check_ppbs_interference() -> CheckResult:
    """Criterion 3: two-V-photon coincidence amplitude -1/3 within 1e-12."""
    modes = modes_for_ports(["a", "b"])
    ppbs = build_element(spec("PPBS", "ppbs", ("a", "b")))
    both_v = PureState(modes, {(0, 1, 0, 1): 1.0})
    out = apply_element(both_v, ppbs)
    seq_amp = out.amplitude((0, 1, 0, 1))
    oracle_amp = amplitude_via_permanent(ppbs.matrix, (0, 1, 0, 1), (0, 1, 0, 1))
    dev = max(abs(seq_amp - (-1.0 / 3.0)), abs(oracle_amp - (-1.0 / 3.0)))
    ok = dev <= 1e-12
    return (
        "ppbs_interference",
        ok,
        f"sequential {seq_amp:.15f}, permanent oracle {oracle_amp:.15f}, "
        f"deviation from -1/3: {dev:.2e}",
    )


def check_oracle_equivalence(netlist: Netlist | None = None) -> CheckResult:
    """Criterion 4: sequential application matches the permanent oracle."""
    nl = netlist or default_netlist()
    start = time.perf_counter()
    unitary = circuit_matrix(nl).tolist()  # the oracle reads Python numbers
    n_modes = len(nl.modes)
    worst = 0.0
    compared = 0
    # one photon or vacuum on each encoded input port, <= 3 photons total
    for pols in itertools.product((None, H, V), repeat=3):
        in_vec = nl.input_occupation(*pols)
        out = run_elements(nl, PureState(nl.modes, {in_vec: 1.0}))
        # every output occupation, as the sorted modes of its photons
        for photon_modes in itertools.combinations_with_replacement(range(n_modes), sum(in_vec)):
            occupation = [0] * n_modes
            for j in photon_modes:
                occupation[j] += 1
            out_vec = tuple(occupation)
            oracle = amplitude_via_permanent(unitary, in_vec, out_vec)
            worst = max(worst, abs(out.amplitude(out_vec) - oracle))
            compared += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    return (
        "oracle_equivalence",
        ok,
        f"{compared} amplitudes compared, worst error {worst:.2e}, "
        f"runtime {elapsed:.2f}s",
    )


def check_design_lengths() -> CheckResult:
    """Criterion 5: solver reproduces the reference coupler lengths of the shipped physics."""
    phys = CouplerPhysics()
    msgs = []
    ok = True

    def best(element: str):
        d = COUPLER_DESIGNS[element]
        return solve_coupler_length(phys, d.targets, d.weights, d.search_range_um)[0], d.reference_um

    pbs, reference = best("pbs")
    cross_v = 1.0 - pbs.bar_v
    pbs_ok = (
        abs(pbs.length_um - reference) <= 0.8
        and pbs.bar_h >= 0.99
        and cross_v >= 1.0 - 1e-6
    )
    ok &= pbs_ok
    msgs.append(
        f"PBS {pbs.length_um:.4f} um (bar_H {pbs.bar_h:.4f}, cross_V {cross_v:.9f})"
    )

    for element in ("ppbs", "f1"):
        sol, reference = best(element)
        rel = abs(sol.length_um - reference) / reference
        ok &= rel <= 0.01
        msgs.append(f"{element.upper()} {sol.length_um:.4f} um (|delta| {rel:.2%})")

    f2 = COUPLER_DESIGNS["f2"]
    candidates = enumerate_v_perfect_lengths(phys, f2.search_range_um)
    f2_ok = len(candidates) == 1 and abs(candidates[0].length_um - f2.reference_um) < 1e-9
    ok &= f2_ok
    if candidates:
        bar_h = candidates[0].bar_h
        msgs.append(
            f"F2 {candidates[0].length_um:.2f} um, bar_H {bar_h:.4f} "
            f"(residual vs 1/3 target: {bar_h - f2.targets[0]:+.4f})"
        )
    else:
        msgs.append("F2: no V-perfect candidate found")
    return ("design_lengths", bool(ok), "; ".join(msgs))


def check_notch_calibration() -> CheckResult:
    """Criterion 6: the shipped anchors reproduced exactly; out-of-span queries rejected."""
    cal = CouplerPhysics().notch
    ok = True
    details = []
    for length, pol, expected in ((0.75, V, 0.25), (2.90, H, 0.50), (2.75, V, 0.50)):
        got = cal.conversion(length, pol)
        exact = got == expected
        ok &= exact
        details.append(f"({length}, {pol.value}) -> {got}")
    rejected = 0
    for length, pol in ((0.10, V), (3.5, V), (2.89, H), (5.0, H)):
        try:
            cal.conversion(length, pol)
        except ValueError:
            rejected += 1
    ok &= rejected == 4
    details.append(f"{rejected}/4 out-of-span queries rejected")
    return ("notch_calibration", bool(ok), "; ".join(details))


def check_tolerance_machinery(netlist: Netlist | None = None) -> CheckResult:
    """Criterion 7: nominal at delta 0; fidelity non-increasing in |delta|."""
    nl = netlist or default_netlist()
    # the shipped lengths of this netlist's couplers: a length that names none is refused
    couplers = {el.name for el in nl.elements if el.kind in COUPLER_KINDS}
    lengths = tuple(pair for pair in CouplerPhysics().coupler_lengths if pair[0] in couplers)
    phys = CouplerPhysics(coupler_lengths=lengths).with_sensitivities("width", 0.004, 0.004)
    rows = tolerance_sweep(nl, phys, "width", (-10.0, 10.0), 1.0, phi=math.pi)
    ok = len(rows) == 21
    center = next(r for r in rows if r.delta_nm == 0.0)
    nominal_ok = center.fidelity >= 1 - 1e-9 and all(
        abs(p - 1.0 / 48.0) <= 1e-9 for p in center.herald_probabilities
    )
    ok &= nominal_ok
    monotone = True
    negative = sorted((r for r in rows if r.delta_nm <= 0), key=lambda r: abs(r.delta_nm))
    positive = sorted((r for r in rows if r.delta_nm >= 0), key=lambda r: abs(r.delta_nm))
    for branch in (negative, positive):
        for a, b in zip(branch, branch[1:]):
            if b.fidelity > a.fidelity + 1e-12:
                monotone = False
    ok &= monotone
    return (
        "tolerance_machinery",
        bool(ok),
        f"{len(rows)} rows; delta=0 fidelity {center.fidelity:.12f}, "
        f"p00 {center.herald_probabilities[0]:.12f}; monotone in |delta|: {monotone}",
    )


def check_conservation_suite(seed: int = 7) -> CheckResult:
    """Criterion 8: norm/photon conservation, herald partitions, plate identities."""
    rng = random.Random(seed)
    modes = modes_for_ports(["a", "b"])
    elements = [
        build_element(
            spec("BS", "beamsplitter", ("a", "b"), t_h=1 / math.sqrt(2), r_h=1 / math.sqrt(2))
        ),
        build_element(spec("PPBS", "ppbs", ("a", "b"))),
        wave_plate("a", HADAMARD_MATRIX),
        wave_plate("a", HWP1_MATRIX),
    ]
    ok = True
    details = []

    worst_norm = 0.0
    photon_ok = True
    for trial in range(20):
        n_photons = 1 + trial % 3
        state = _random_state(rng, modes, n_photons=n_photons)
        for el in elements:
            out = apply_element(state, el)
            worst_norm = max(worst_norm, abs(norm_squared(out) - norm_squared(state)))
            if any(sum(vec) != n_photons for vec, _ in out.items()):
                photon_ok = False
    ok &= worst_norm <= 1e-12 and photon_ok
    details.append(f"norm drift {worst_norm:.2e}; photon conservation {photon_ok}")

    # disjoint exhaustive herald patterns partition the norm
    state = _random_state(rng, modes, n_photons=3)
    total = 0.0
    for k in range(4):
        pattern = HeraldPattern.on_modes(
            modes, [([Mode("a", H), Mode("a", V)], k)]
        )
        _, prob = project_herald(state, pattern)
        total += prob
    partition_dev = abs(total - norm_squared(state))
    ok &= partition_dev <= 1e-12
    details.append(f"partition sum deviation {partition_dev:.2e}")

    # Hadamard-form plate is involutive
    had = wave_plate("a", HADAMARD_MATRIX)
    state = _random_state(rng, modes, n_photons=2)
    twice = apply_element(apply_element(state, had), had)
    invol_dev = _state_distance(state, twice)
    ok &= invol_dev <= 1e-12
    details.append(f"HWP23 involution deviation {invol_dev:.2e}")

    # gate output invariant to the HWP1 completion row (the H action)
    base = extract_gate(default_netlist(), math.pi / 3)
    worst_gate = 0.0
    for chi in (math.pi / 2, math.pi, 4.0):
        phase = complex(math.cos(chi), math.sin(chi))
        alt = [[-math.sqrt(3) / 2 * phase, 0.5 * phase], [0.5, math.sqrt(3) / 2]]
        nl = default_netlist().with_overrides(
            {"HWP1": ElementSpec("HWP1", "waveplate", ("L",), (("matrix", alt),))}
        )
        res = extract_gate(nl, math.pi / 3)
        worst_gate = max(
            worst_gate, float(np.max(np.abs(res.operator - base.operator)))
        )
        worst_gate = max(
            worst_gate,
            max(
                abs(res.herald_probability[k] - base.herald_probability[k])
                for k in base.herald_probability
            ),
        )
    ok &= worst_gate <= 1e-10
    details.append(f"HWP1-completion drift {worst_gate:.2e}")
    return ("conservation_suite", bool(ok), "; ".join(details))


def _random_state(rng: random.Random, modes, n_photons: int) -> PureState:
    n_modes = len(modes)
    terms = {}
    for _ in range(4):
        vec = [0] * n_modes
        for _ in range(n_photons):
            vec[rng.randrange(n_modes)] += 1
        amp = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        terms[tuple(vec)] = amp
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return PureState(modes, {k: v / norm for k, v in terms.items()})


def _state_distance(a: PureState, b: PureState) -> float:
    keys = {vec for vec, _ in a.items()} | {vec[: len(a.modes)] for vec, _ in b.items()}
    worst = 0.0
    for vec in keys:
        worst = max(worst, abs(a.amplitude(vec) - b.amplitude(vec)))
    return worst


def run_all(netlist: Netlist | None = None, seed: int = 7) -> list[CheckResult]:
    return [
        check_cphase_correctness(netlist),
        check_success_probability(netlist),
        check_ppbs_interference(),
        check_oracle_equivalence(netlist),
        check_design_lengths(),
        check_notch_calibration(),
        check_tolerance_machinery(netlist),
        check_conservation_suite(seed),
    ]
