import math

import pytest

from fockgate.gate import Netlist, default_netlist, spec


@pytest.fixture(scope="module")
def moved_f2_netlist():
    """Default circuit with the H filter F2 moved onto the program arm.

    F2 sits on P just before PBS3 instead of on the control output.
    """
    netlist = default_netlist()
    elements = []
    for el in netlist.elements:
        if el.name == "F2":
            continue
        elements.append(el)
        if el.name == "PBS3":
            elements.insert(
                -1, spec("F2", "filter", ("P", "F2_LOSS"), t_h=1 / math.sqrt(3), t_v=1.0)
            )
    return Netlist(netlist.ports, tuple(elements), netlist.herald, netlist.encoding)
