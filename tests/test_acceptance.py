"""Acceptance gate: every criterion at its stated tolerance.

Runs the same checks as the `fockgate check` CLI command and prints one
pass/fail line per criterion.
"""

import cmath

import numpy as np
import pytest

from fockgate import acceptance
from fockgate.gate import GateResult


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
        return GateResult(op, {}, phi, 1.0)

    monkeypatch.setattr(acceptance, "extract_gate", gate_without_00)
    _, passed, detail = acceptance.check_cphase_correctness()
    assert not passed
    assert "max phase error nan" in detail
