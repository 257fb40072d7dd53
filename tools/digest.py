"""A SHA-256 over the raw bytes of the gate engine's results, to show two trees agree bit for bit.

    python3 tools/digest.py

It runs, on the source tree it sits in (`src/` and `tests/test_oracle.py`
next to this directory):

- `extract_gate` on each of the `ENGINE_CASES` of tests/test_oracle.py at
  the phases `GATE_PHIS`: the operator, the herald probabilities and the
  fidelity;
- 60 seeded `tolerance_sweep`s over those netlists: every row's delta,
  bars, herald probabilities and fidelity;
- seeded `prepare_input` + `run_heralded` calls on each case: the
  branch's occupations and amplitudes and the herald probability.

Every float enters as its 8 (or, complex, 16) IEEE bytes, so a signed zero
or a last-bit change moves the digest; an error enters as its type and
message.  It prints one line per part and a last line `total <sha256>`
over all three; the same last line from two trees means they computed the
same bytes.
"""

from __future__ import annotations

import hashlib
import importlib.util
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
    from fockgate.gate import BASIS_LABELS, extract_gate

    for case in sorted(oracle.ENGINE_CASES):
        netlist = oracle.ENGINE_CASES[case]()
        for phi in oracle.GATE_PHIS:
            out.label(f"{case} {phi!r}")
            try:
                got = extract_gate(netlist, phi)
            except ValueError as exc:
                out.error(exc)
                continue
            out.complexes(got.operator)
            out.floats([got.herald_probability[label] for label in BASIS_LABELS])
            out.floats([got.fidelity])


def _sweeps(oracle, out: _Hash) -> None:
    from fockgate.design import DIMENSIONS, CouplerPhysics, tolerance_sweep

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
            branch, prob = run_heralded(netlist, state)
            for vec, amp in branch.items():
                out.ints(vec)
                out.complexes([amp])
            out.floats([prob])


PARTS = (("extract_gate", _gates), ("tolerance_sweep", _sweeps), ("run_heralded", _branches))


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
