"""The three workloads: seeded inputs, one op, and the op's check.

Every input comes from `random.Random(f"{name}-{seed}")`, so the same
seed gives the same op sequence; fockgate sees only the generated values.
Ops call fockgate through module attributes (`gate.extract_gate`, not a
name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from fockgate import cli, design, elements, gate
from fockgate import io as fio
from fockgate.fock import H, V, Mode

TWO_PI = 2.0 * math.pi


def _qubit(rng: random.Random) -> tuple[complex, complex]:
    a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


class PhaseScan:
    """In-process simulate requests on the shipped netlist."""

    name = "phase_scan"
    pass_size = 25  # ops per traced pass

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.netlist = gate.default_netlist()
        enc = self.netlist.encoding
        modes = list(self.netlist.modes)
        self.index = {
            "tH": modes.index(Mode(enc.target, H)),
            "tV": modes.index(Mode(enc.target, V)),
            "cH": modes.index(Mode(enc.control, H)),
            "cV": modes.index(Mode(enc.control, V)),
            "det": modes.index(Mode(enc.program, V)),
        }

    def next_input(self):
        return (self.rng.uniform(0.0, TWO_PI), _qubit(self.rng), _qubit(self.rng))

    def run(self, inp):
        phi, target, control = inp
        nl = self.netlist
        result = gate.extract_gate(nl, phi)
        state = gate.prepare_input(nl, target, control, gate.ProgramState(phi))
        branch, prob = gate.run_heralded(nl, state)
        return result, branch, prob

    def check(self, inp, result) -> list[str]:
        return checks.check_phase_op(inp, result, self.index)


@dataclass(frozen=True)
class SweepInput:
    dimension: str
    s_h: float
    s_v: float
    phi: float
    check_row: int  # row recomputed from permanents
    physics: design.CouplerPhysics


def _sensitivity(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.002, 0.006)


def _recompute_row(netlist, physics, dimension, delta, phi):
    """Herald probabilities and fidelity of one perturbed netlist, via permanents."""
    overrides = design.synthesize_imperfect_elements(netlist, physics, dimension, delta)
    perturbed = netlist.with_overrides(overrides)
    unitary = gate.circuit_matrix(perturbed)
    op = checks.permanent_operator(unitary, perturbed.modes, perturbed.encoding, phi,
                                   elements.amplitude_via_permanent)
    probs = [float(np.vdot(op[:, k], op[:, k]).real) for k in range(4)]
    return probs, checks.fidelity(op, checks.ideal(phi))


class FabSweep:
    """In-process 21-point tolerance sweeps with seeded sensitivities."""

    name = "fab_sweep"
    pass_size = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.netlist = gate.default_netlist()

    def next_input(self) -> SweepInput:
        rng = self.rng
        dim = rng.choice(design.DIMENSIONS)
        s_h, s_v = _sensitivity(rng), _sensitivity(rng)
        phi = rng.uniform(0.0, TWO_PI)
        row = rng.choice([k for k in range(21) if k != 10])
        physics = design.CouplerPhysics().with_sensitivities(dim, s_h, s_v)
        return SweepInput(dim, s_h, s_v, phi, row, physics)

    def run(self, inp: SweepInput):
        return design.tolerance_sweep(self.netlist, inp.physics, inp.dimension,
                                      (-10.0, 10.0), 1.0, phi=inp.phi)

    def check(self, inp: SweepInput, rows) -> list[str]:
        def recompute(delta):
            return _recompute_row(self.netlist, inp.physics, inp.dimension, delta, inp.phi)

        return checks.check_sweep_op(inp, rows, recompute)


CLI_CYCLE = ("truth-table", "simulate", "design", "sweep", "check")
DESIGN_ELEMENTS = ("pbs", "ppbs", "f1", "f2")
SWEEP_STEP = 5.0


@dataclass(frozen=True)
class CliInput:
    command: str
    argv: tuple[str, ...]
    csv_path: str | None = None
    sweep_args: tuple | None = None  # (dimension, phi) for the reference CSV


@dataclass
class CliResult:
    returncode: int
    stdout: str


CLI_TIMEOUT_S = 120


def _fmt_qubit(q) -> str:
    return ":".join(f"{repr(c.real)},{repr(c.imag)}" for c in q)


def sweep_csv(netlist, physics, dimension: str, phi: float) -> bytes:
    """The table `fockgate sweep` writes, built here from an in-process sweep."""
    rows = design.tolerance_sweep(netlist, physics, dimension, (-10.0, 10.0), SWEEP_STEP, phi=phi)
    header = ["delta_nm"]
    for name, _, _ in rows[0].element_bars:
        header += [f"{name}_bar_H", f"{name}_bar_V"]
    header += ["p_00", "p_01", "p_10", "p_11", "fidelity"]
    table = []
    for r in rows:
        row = [r.delta_nm]
        for _, bh, bv in r.element_bars:
            row += [bh, bv]
        table.append(row + list(r.herald_probabilities) + [r.fidelity])
    return fio.render_csv(header, table).encode("utf-8")


class CliCold:
    """A fresh `python -m fockgate.cli` per op, round-robin over five commands."""

    name = "cli_cold"
    pass_size = len(CLI_CYCLE)

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.workdir = workdir
        self.netlist = gate.default_netlist()
        physics = design.CouplerPhysics()
        for dim in design.DIMENSIONS:
            physics = physics.with_sensitivities(dim, _sensitivity(self.rng), _sensitivity(self.rng))
        self.physics = physics
        self.physics_path = workdir / "physics.json"
        fio.save_physics(physics, self.physics_path)
        self.count = 0
        src = str(Path(gate.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_child_rss_kb = 0  # largest ru_maxrss of any CLI process run so far

    def next_input(self) -> CliInput:
        rng = self.rng
        command = CLI_CYCLE[self.count % len(CLI_CYCLE)]
        k = self.count
        self.count += 1
        phi = repr(rng.uniform(0.0, TWO_PI))
        if command == "truth-table":
            return CliInput(command, (command, "--phi", phi))
        if command == "simulate":
            # "--x=value" form: amplitudes may start with "-"
            return CliInput(command, (command, "--phi", phi,
                                      f"--target={_fmt_qubit(_qubit(rng))}",
                                      f"--control={_fmt_qubit(_qubit(rng))}"))
        if command == "design":
            element = DESIGN_ELEMENTS[(k // len(CLI_CYCLE)) % len(DESIGN_ELEMENTS)]
            return CliInput(command, (command, "--element", element,
                                      "--count", str(rng.randint(1, 3))))
        if command == "sweep":
            dim = rng.choice(design.DIMENSIONS)
            path = str(self.workdir / f"sweep-{k}.csv")
            return CliInput(command, (command, "--dimension", dim, "--step", repr(SWEEP_STEP),
                                      "--phi", phi, "--physics", str(self.physics_path),
                                      "--output", path),
                            csv_path=path, sweep_args=(dim, float(phi)))
        return CliInput(command, (command, "--seed", str(rng.randint(0, 2**31 - 1))))

    def run(self, inp: CliInput) -> CliResult:
        """One CLI process; its own resource usage is read with wait4."""
        proc = subprocess.Popen([sys.executable, "-m", "fockgate.cli", *inp.argv], env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, stdout)

    def run_in_process(self, inp: CliInput) -> CliResult:
        out = _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_io.StringIO()):
            try:
                code = cli.main(list(inp.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue())

    def check(self, inp: CliInput, result: CliResult) -> list[str]:
        expected = None
        if inp.sweep_args is not None:
            dim, phi = inp.sweep_args
            expected = sweep_csv(self.netlist, self.physics, dim, phi)
        return checks.check_cli_op(inp.command, result.returncode, result.stdout,
                                   _read(inp.csv_path), expected)


def _read(path: str | None) -> bytes | None:
    if path is None:
        return None
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


WORKLOADS = {w.name: w for w in (PhaseScan, FabSweep, CliCold)}
