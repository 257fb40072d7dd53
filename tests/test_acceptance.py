"""Acceptance gate: every criterion at its stated tolerance.

Runs the same checks as the `fockgate check` CLI command and prints one
pass/fail line per criterion.
"""

import cmath

import numpy as np
import pytest

from fockgate import acceptance
from fockgate.gate import GateResult, Netlist, PortDecl, default_netlist


@pytest.mark.parametrize(
    "check",
    [
        acceptance.check_cphase_correctness,
        acceptance.check_success_probability,
        acceptance.check_ppbs_interference,
        acceptance.check_oracle_equivalence,
        acceptance.check_design_lengths,
        acceptance.check_notch_calibration,
        acceptance.check_tolerance_machinery,
        acceptance.check_conservation_suite,
    ],
    ids=lambda fn: fn.__name__.removeprefix("check_"),
)
def test_acceptance_criterion(check):
    name, passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_cphase_correctness_counts_an_undefined_phase_as_a_failure(monkeypatch):
    # diagonal, full fidelity, but |00> never heralds, so the phase is NaN
    def gate_without_00(netlist, phi):
        op = np.diag([0.0, 1.0, 1.0, cmath.exp(1j * phi)])
        return GateResult(op, {}, 1.0)

    monkeypatch.setattr(acceptance, "extract_gate", gate_without_00)
    _, passed, detail = acceptance.check_cphase_correctness()
    assert not passed
    assert "max phase error nan" in detail


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_conservation_suite_passes_for_any_seed(seed):
    name, passed, detail = acceptance.check_conservation_suite(seed)
    assert passed, f"{name}: {detail}"


def test_oracle_equivalence_on_a_24_mode_netlist():
    # six unused internal ports: every output of up to 3 photons over 24 modes
    shipped = default_netlist()
    spare = tuple(PortDecl(f"SPARE{i}", "internal") for i in range(6))
    wide = Netlist(shipped.ports + spare, shipped.elements, shipped.herald, shipped.encoding)
    name, passed, detail = acceptance.check_oracle_equivalence(wide)
    assert passed, f"{name}: {detail}"
    assert detail.startswith("24545 amplitudes compared")
