"""The benchmark's tracer wraps fockgate functions by name; they must all exist.

`perfbench/tracer.py` imports only the standard library at module level,
so its TARGETS table can be read here without the benchmark's set-up.  A
rename of a traced function then fails this test instead of the
benchmark's traced run.  Each workload's own op and check also run here,
in process, so a numerical slip fails these tests before the benchmark
reports its ops as incorrect.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SEED = 1  # the benchmark's development seed


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("metric", sorted(TARGETS))
def test_traced_function_resolves(metric):
    module_name, attr_path = TARGETS[metric]
    owner = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_by_name_import_of_extract_gate_kept():
    # perfbench/selftest.py patches and restores `design.extract_gate` by name
    from fockgate import design, gate

    assert design.extract_gate is gate.extract_gate


@pytest.mark.parametrize("module, name", [
    ("elements", "apply_element"),
    ("elements", "amplitude_via_permanent"),
    ("gate", "run_elements"),
    ("gate", "heralded_output_amplitudes"),
    ("acceptance", "run_elements"),
])
def test_harness_names_are_the_reference_itself(module, name):
    # the tracer and perfbench/selftest.py read these names where they were
    # defined before `fockgate.reference` held them; each must stay the
    # reference's own object, not a second copy of it
    from fockgate import reference

    assert getattr(importlib.import_module(f"fockgate.{module}"), name) is getattr(reference, name)


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, which imports its sibling `checks` by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name, ops", [("phase_scan", 25), ("fab_sweep", 3)])
def test_workload_ops_pass_their_own_checks(workloads, tmp_path, name, ops):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    for _ in range(ops):
        inp = workload.next_input()
        assert workload.check(inp, workload.run(inp)) == []


def test_cli_cold_cycle_passes_its_checks_in_process(workloads, tmp_path):
    workload = workloads.CliCold(SEED, tmp_path)
    commands = []
    for _ in workloads.CLI_CYCLE:
        inp = workload.next_input()
        commands.append(inp.command)
        assert workload.check(inp, workload.run_in_process(inp)) == []
    assert tuple(commands) == workloads.CLI_CYCLE
