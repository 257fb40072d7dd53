"""Module-level tables are read-only: one assignment into one would change every later call.

Each `fockgate` module's globals are walked, through tuples and read-only
mappings, for a dict, list, set or bytearray, or an ndarray that can be
written.
"""

import importlib
import math
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import fockgate
from fockgate.elements import HADAMARD_MATRIX, WAVEPLATE_PRESETS
from fockgate.gate import NetlistError, default_netlist, extract_gate, spec

MODULES = ["fockgate"] + [f"fockgate.{info.name}" for info in pkgutil.iter_modules(fockgate.__path__)]

# "module.name[key]..." -> why that mutable value may stay; empty today
ALLOWED = MappingProxyType({})


def _mutable(value, path):
    """The paths under `value` that hold a mutable container or a writeable array."""
    if isinstance(value, (dict, list, set, bytearray)):
        return [path]
    if isinstance(value, np.ndarray):
        return [path] if value.flags.writeable else []
    if isinstance(value, MappingProxyType):
        return [p for key, item in value.items() for p in _mutable(item, f"{path}[{key!r}]")]
    if isinstance(value, tuple):
        return [p for k, item in enumerate(value) for p in _mutable(item, f"{path}[{k}]")]
    return []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_holds_a_mutable_table(module):
    found = [
        path
        for name, value in vars(importlib.import_module(module)).items()
        if not (name.startswith("__") and name.endswith("__"))
        for path in _mutable(value, f"{module}.{name}")
    ]
    assert [path for path in found if path not in ALLOWED] == []
    assert [path for path in ALLOWED if path.startswith(f"{module}.") and path not in found] == []


def test_the_walk_finds_a_mutable_value_under_a_read_only_one():
    table = MappingProxyType({"a": (1, MappingProxyType({"b": [2]})), "c": np.zeros(2)})
    assert _mutable(table, "t") == ["t['a'][1]['b']", "t['c']"]


def test_a_preset_cannot_be_replaced():
    # one assignment used to change every netlist realized afterwards
    with pytest.raises(TypeError):
        WAVEPLATE_PRESETS["hwp1"] = HADAMARD_MATRIX
    result = extract_gate(default_netlist(), math.pi)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NetlistError, match=r"must name a preset \(hwp1, hadamard\), got 'x'"):
        spec("X", "waveplate", ("a",), preset="x")
