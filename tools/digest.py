"""A SHA-256 over the raw bytes of the gate engine's results, to show two trees agree bit for bit.

    python3 tools/digest.py

It runs, on the source tree it sits in (`src/` and `tests/test_oracle.py`
next to this directory):

- `extract_gate` on each of the `ENGINE_CASES` of tests/test_oracle.py at
  the phases `GATE_PHIS`: the operator, the herald probabilities and the
  fidelity;
- 60 seeded `tolerance_sweep`s over those netlists, then a sweep with no
  coupler length configured and a sweep of an overridden copy of a
  netlist taken after the netlist itself was swept: every row's delta,
  bars, herald probabilities and fidelity;
- `tolerance_sweep` of the shipped netlist along each dimension, with the
  physics of tests/golden/physics.json and of that document with integer
  beats and coupler lengths added: every row, as above;
- seeded `tolerance_sweep`s of the shipped netlist with its wave plates and
  rotated detector scaled by 1 + 1e-13, whose steps are too far from unitary
  for a sweep to skip the check of its circuits, which pass it: every row;
- on the shipped netlist with its ports declared in reverse and on a copy
  rewired with PBS3 on ports (P, L) and HWP1 on port C, whose modes the
  netlist lays out in other columns: `extract_gate` at `GATE_PHIS` and a
  seeded 21-point `tolerance_sweep`, as above;
- seeded `prepare_input` + `run_heralded` calls on each case: the
  branch's occupations and amplitudes and the herald probability;
- `run_heralded` on seeded states that are not basis inputs, which take a
  fresh transfer through `Netlist.herald_pattern`: on each case and on the
  shipped netlist with its ports declared in reverse, a superposition of 0
  to 4 photons (a basis input among its three-photon terms), once on the
  netlist's modes and once on those modes shuffled, which `extend_state`
  lays out again: the branch and the herald probability.

Every float enters as its 8 (or, complex, 16) IEEE bytes, so a signed zero
or a last-bit change moves the digest; an error enters as its type and
message.  It prints one line per part and a last line `total <sha256>`
over all the parts; the same last line from two trees means they computed
the same bytes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SWEEPS = 60


def _load_oracle():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("_digest_oracle", ROOT / "tests" / "test_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Hash:
    """A SHA-256 fed with labels, floats, complex numbers and integer tuples."""

    def __init__(self):
        self._h = hashlib.sha256()

    def label(self, text: str) -> None:
        self._h.update(text.encode() + b"\0")

    def floats(self, values) -> None:
        self._h.update(np.asarray(values, dtype=float).tobytes())

    def complexes(self, values) -> None:
        self._h.update(np.asarray(values, dtype=complex).tobytes())

    def ints(self, values) -> None:
        self._h.update(np.asarray(values, dtype=np.int64).tobytes())

    def error(self, exc: Exception) -> None:
        self.label(f"{type(exc).__name__}: {exc}")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _gates(oracle, out: _Hash) -> None:
    for case in sorted(oracle.ENGINE_CASES):
        netlist = oracle.ENGINE_CASES[case]()
        for phi in oracle.GATE_PHIS:
            out.label(f"{case} {phi!r}")
            _gate(netlist, phi, out)


def _gate(netlist, phi: float, out: _Hash) -> None:
    from fockgate.gate import BASIS_LABELS, extract_gate

    try:
        got = extract_gate(netlist, phi)
    except ValueError as exc:
        out.error(exc)
        return
    out.complexes(got.operator)
    out.floats([got.herald_probability[label] for label in BASIS_LABELS])
    out.floats([got.fidelity])


def _sweeps(oracle, out: _Hash) -> None:
    from fockgate.design import DIMENSIONS, CouplerPhysics, tolerance_sweep
    from fockgate.gate import default_netlist

    cases = sorted(oracle.ENGINE_CASES)
    for k in range(SWEEPS):
        rng = random.Random(f"sweep-{k}")
        case = cases[rng.randrange(len(cases))]
        dimension = rng.choice(DIMENSIONS)
        physics = CouplerPhysics().with_sensitivities(
            dimension, rng.uniform(-0.006, 0.006), rng.uniform(-0.006, 0.006)
        )
        bounds = (rng.uniform(-10.0, 0.0), rng.uniform(0.0, 10.0))
        step = rng.choice((0.25, 0.5, 1.0, 2.5))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.label(f"{k} {case} {dimension} {physics.sensitivities!r} {bounds!r} {step!r} {phi!r}")
        try:
            rows = tolerance_sweep(oracle.ENGINE_CASES[case](), physics, dimension, bounds, step, phi)
        except ValueError as exc:
            out.error(exc)
            continue
        _rows(rows, out)

    physics = CouplerPhysics(coupler_lengths=()).with_sensitivities("width", 0.004, 0.004)
    out.label("no coupler lengths")
    _rows(tolerance_sweep(default_netlist(), physics, "width", (-2.0, 2.0), 1.0, 1.3), out)
    netlist = default_netlist()
    physics = CouplerPhysics().with_sensitivities("gap", 0.005, -0.003)
    copy = netlist.with_overrides({"PPBS": netlist.element("PPBS").with_params(theta_h=0.2)})
    for label, swept in (("a netlist", netlist), ("its copy, swept after it", copy)):
        out.label(label)
        _rows(tolerance_sweep(swept, physics, "gap", (-10.0, 10.0), 2.5, 2.2), out)


def _physics_file_sweeps(oracle, out: _Hash) -> None:
    from fockgate.design import DIMENSIONS, tolerance_sweep
    from fockgate.gate import default_netlist
    from fockgate.io import load_physics, physics_from_dict

    path = ROOT / "tests" / "golden" / "physics.json"
    physics = load_physics(path)
    integral = {
        **json.loads(path.read_text(encoding="utf-8")),
        "beat_um": {"H": 36, "V": 8},
        "coupler_lengths_um": {name: round(length) for name, length in physics.coupler_lengths},
    }
    for label, swept in (("golden", physics), ("integer values", physics_from_dict(integral))):
        for dimension in DIMENSIONS:
            out.label(f"{label} {dimension}")
            try:
                rows = tolerance_sweep(default_netlist(), swept, dimension)
            except ValueError as exc:
                out.error(exc)
                continue
            _rows(rows, out)


def _checked_sweeps(oracle, out: _Hash) -> None:
    from fockgate.design import DIMENSIONS, CouplerPhysics, tolerance_sweep
    from fockgate.gate import default_netlist, spec

    netlist = default_netlist()
    netlist = netlist.with_overrides({
        step.spec.name: spec(step.spec.name, "waveplate", step.spec.ports,
                             matrix=(step.matrix * (1 + 1e-13)).tolist())
        for step in netlist.steps if len(step.spec.ports) == 1
    })
    for dimension in DIMENSIONS:
        rng = random.Random(f"checked-{dimension}")
        physics = CouplerPhysics().with_sensitivities(
            dimension, rng.uniform(-0.006, 0.006), rng.uniform(-0.006, 0.006)
        )
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.label(f"{dimension} {physics.sensitivities!r} {phi!r}")
        _rows(tolerance_sweep(netlist, physics, dimension, (-10.0, 10.0), 0.25, phi), out)


def _reversed_ports():
    from fockgate.gate import default_netlist
    from fockgate.io import netlist_from_dict, netlist_to_dict

    data = netlist_to_dict(default_netlist())
    data["ports"] = data["ports"][::-1]
    return netlist_from_dict(data)


def _rewired():
    from fockgate.gate import default_netlist, spec

    return default_netlist().with_overrides({
        "PBS3": spec("PBS3", "pbs", ("P", "L")),
        "HWP1": spec("HWP1", "waveplate", ("C",), preset="hwp1"),
    })


def _layouts(oracle, out: _Hash) -> None:
    from fockgate.design import DIMENSIONS, CouplerPhysics, tolerance_sweep

    for case, make in (("reversed ports", _reversed_ports), ("rewired", _rewired)):
        for phi in oracle.GATE_PHIS:
            out.label(f"{case} {phi!r}")
            _gate(make(), phi, out)
        rng = random.Random(f"layout-{case}")
        dimension = rng.choice(DIMENSIONS)
        physics = CouplerPhysics().with_sensitivities(
            dimension, rng.uniform(-0.006, 0.006), rng.uniform(-0.006, 0.006)
        )
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.label(f"{case} {dimension} {physics.sensitivities!r} {phi!r}")
        try:
            rows = tolerance_sweep(make(), physics, dimension, (-10.0, 10.0), 1.0, phi)
        except ValueError as exc:
            out.error(exc)
            continue
        _rows(rows, out)


def _rows(rows, out: _Hash) -> None:
    for row in rows:
        out.floats([row.delta_nm, *row.herald_probabilities, row.fidelity])
        for name, bar_h, bar_v in row.element_bars:
            out.label(name)
            out.floats([bar_h, bar_v])


def _branches(oracle, out: _Hash) -> None:
    from fockgate.gate import ProgramState, prepare_input, run_heralded

    for case in sorted(oracle.ENGINE_CASES):
        netlist = oracle.ENGINE_CASES[case]()
        rng = random.Random(f"branch-{case}")
        for _ in range(3):
            target, control = oracle._random_qubit(rng), oracle._random_qubit(rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out.label(f"{case} {target!r} {control!r} {phi!r}")
            state = prepare_input(netlist, target, control, ProgramState(phi))
            _branch(run_heralded(netlist, state), out)


def _branch(result, out: _Hash) -> None:
    branch, prob = result
    for vec, amp in branch.items():
        out.ints(vec)
        out.complexes([amp])
    out.floats([prob])


def _foreign_branches(oracle, out: _Hash) -> None:
    from fockgate.fock import H, V, PureState
    from fockgate.gate import run_heralded

    makers = {case: oracle.ENGINE_CASES[case] for case in sorted(oracle.ENGINE_CASES)}
    makers["reversed ports"] = _reversed_ports
    for case, make in makers.items():
        netlist = make()
        n_modes = len(netlist.modes)
        rng = random.Random(f"foreign-{case}")
        terms = {}
        for n in (0, 1, 2, 3, 3, 4):
            vec = [0] * n_modes
            for _ in range(n):
                vec[rng.randrange(n_modes)] += 1
            terms[tuple(vec)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        terms[netlist.input_occupation(H, V, V)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        order = rng.sample(range(n_modes), n_modes)
        shuffled = {tuple(vec[k] for k in order): amp for vec, amp in terms.items()}
        for label, modes, state_terms in (
            ("mixed", netlist.modes, terms),
            ("shuffled", tuple(netlist.modes[k] for k in order), shuffled),
        ):
            out.label(f"{case} {label}")
            _branch(run_heralded(netlist, PureState(modes, state_terms)), out)


PARTS = (
    ("extract_gate", _gates),
    ("tolerance_sweep", _sweeps),
    ("tolerance_sweep_physics_file", _physics_file_sweeps),
    ("tolerance_sweep_checked", _checked_sweeps),
    ("layouts", _layouts),
    ("run_heralded", _branches),
    ("run_heralded_foreign", _foreign_branches),
)


def digests() -> list[tuple[str, str]]:
    """(part, sha256) for each part in order, then ("total", sha256 over the part digests)."""
    oracle = _load_oracle()
    lines = []
    for name, part in PARTS:
        out = _Hash()
        part(oracle, out)
        lines.append((name, out.hexdigest()))
    total = _Hash()
    for name, value in lines:
        total.label(f"{name} {value}")
    return lines + [("total", total.hexdigest())]


def main() -> None:
    for name, value in digests():
        print(f"{name} {value}")


if __name__ == "__main__":
    main()
