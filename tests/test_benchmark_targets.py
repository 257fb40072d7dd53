"""The benchmark's tracer wraps fockgate functions by name; they must all exist.

`perfbench/tracer.py` imports only the standard library at module level,
so its TARGETS table can be read here without the benchmark's set-up.  A
rename of a traced function then fails this test instead of the
benchmark's traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
