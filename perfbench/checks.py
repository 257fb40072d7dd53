"""Result checks, run outside the timed interval.

Each check returns a list of problems; an empty list means the op passed.
References are computed here, not taken from the code under test: the
linear-map identity for `phase_scan`, the permanent oracle for
`fab_sweep`, and an in-process sweep rendered to CSV for `cli_cold`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from fockgate.fock import H, V, Mode

HERALD_P = 1.0 / 48.0
FIDELITY_MIN = 1.0 - 1e-9  # acceptance bounds (criteria 1 and 2)
OFFDIAG_MAX = 1e-10
PROB_TOL = 1e-9
PHASE_TOL = 1e-9
LINEAR_TOL = 1e-12  # branch amplitudes against op @ (t x c)
ORACLE_TOL = 1e-10  # sweep row against the permanent recomputation


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|Tr(A^dag B)|^2 / (Tr(A^dag A) Tr(B^dag B))."""
    na = np.vdot(a, a).real
    nb = np.vdot(b, b).real
    return float(abs(np.vdot(a, b)) ** 2 / (na * nb))


def ideal(phi: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)])


def _phase_error(measured: float, phi: float) -> float:
    return abs((measured - phi + math.pi) % (2 * math.pi) - math.pi)


def operator_problems(op: np.ndarray, probs, phi: float) -> list[str]:
    """Acceptance bounds on a 4x4 heralded operator and its herald probabilities."""
    problems = []
    fid = fidelity(op, ideal(phi))
    if not fid >= FIDELITY_MIN:
        problems.append(f"fidelity {fid!r} < 1 - 1e-9")
    off = float(np.max(np.abs(op - np.diag(np.diag(op)))))
    if not off < OFFDIAG_MAX:
        problems.append(f"off-diagonal {off:.3e} >= 1e-10")
    err = _phase_error(cmath.phase(op[3, 3] / op[0, 0]), phi)
    if not err <= PHASE_TOL:
        problems.append(f"phase error {err:.3e}")
    for p in probs:
        if not abs(p - HERALD_P) <= PROB_TOL:
            problems.append(f"herald probability {p!r} is not 1/48")
    return problems


def logical_amplitudes(branch, index) -> np.ndarray:
    """Amplitudes of |00>,|01>,|10>,|11> read directly from a heralded branch.

    index maps 'tH','tV','cH','cV','det' to mode positions of the branch.
    """
    out = np.zeros(4, dtype=complex)
    for vec, amp in branch.items():
        if vec[index["det"]] != 1:
            continue
        t = (vec[index["tH"]], vec[index["tV"]])
        c = (vec[index["cH"]], vec[index["cV"]])
        if t in ((1, 0), (0, 1)) and c in ((1, 0), (0, 1)):
            out[2 * t.index(1) + c.index(1)] += amp
    return out


def check_phase_op(inp, result, index) -> list[str]:
    """phase_scan: extract_gate bounds, and the single run obeys op @ (t x c)."""
    phi, target, control = inp
    gate_result, branch, prob = result
    op = np.asarray(gate_result.operator)
    probs = [gate_result.herald_probability[k] for k in ("00", "01", "10", "11")]
    problems = operator_problems(op, probs, phi)
    expected = op @ np.kron(np.asarray(target), np.asarray(control))
    got = logical_amplitudes(branch, index)
    dev = float(np.max(np.abs(got - expected)))
    if not dev <= LINEAR_TOL:
        problems.append(f"branch amplitudes differ from op @ (t x c) by {dev:.3e}")
    want = float(np.vdot(expected, expected).real)
    if not abs(prob - want) <= LINEAR_TOL:
        problems.append(f"herald probability {prob!r} != |op (t x c)|^2 = {want!r}")
    return problems


def permanent_operator(unitary: np.ndarray, modes, encoding, phi: float, amplitude) -> np.ndarray:
    """Heralded 4x4 operator from permanents of the full circuit matrix.

    The program photon is (|H> + e^{i phi}|V>)/sqrt2, so each amplitude is
    the weighted sum of the two three-photon transition amplitudes.
    """
    pos = {m: i for i, m in enumerate(modes)}

    def occupation(*ms):
        vec = [0] * len(modes)
        for m in ms:
            vec[pos[m]] += 1
        return tuple(vec)

    pols = (H, V)
    weights = {H: 1 / math.sqrt(2), V: cmath.exp(1j * phi) / math.sqrt(2)}
    op = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        t_in, c_in = pols[col // 2], pols[col % 2]
        for row in range(4):
            t_out, c_out = pols[row // 2], pols[row % 2]
            out_vec = occupation(Mode(encoding.target, t_out),
                                 Mode(encoding.control, c_out),
                                 Mode(encoding.program, V))
            op[row, col] = sum(
                weights[p] * amplitude(
                    unitary,
                    occupation(Mode(encoding.target, t_in),
                               Mode(encoding.control, c_in),
                               Mode(encoding.program, p)),
                    out_vec,
                )
                for p in pols
            )
    return op


def check_sweep_op(inp, rows, recompute) -> list[str]:
    """fab_sweep: 21 rows in delta order, nominal centre, one row against the oracle.

    recompute(delta) returns (herald probabilities, fidelity) of the
    perturbed netlist from permanents.
    """
    problems = []
    deltas = [r.delta_nm for r in rows]
    if deltas != [-10.0 + i for i in range(21)]:
        return [f"sweep returned deltas {deltas}"]
    centre = rows[10]
    if not centre.fidelity >= FIDELITY_MIN:
        problems.append(f"delta 0 fidelity {centre.fidelity!r}")
    for p in centre.herald_probabilities:
        if not abs(p - HERALD_P) <= PROB_TOL:
            problems.append(f"delta 0 herald probability {p!r} is not 1/48")
    row = rows[inp.check_row]
    probs, fid = recompute(row.delta_nm)
    dev = max(abs(a - b) for a, b in zip(probs, row.herald_probabilities))
    dev = max(dev, abs(fid - row.fidelity))
    if not dev <= ORACLE_TOL:
        problems.append(f"row delta={row.delta_nm} differs from the permanent oracle by {dev:.3e}")
    return problems


def _field(text: str, prefix: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].split()[0])
            except (ValueError, IndexError):
                return None
    return None


def check_cli_op(command: str, returncode: int, stdout: str, csv_bytes, expected_csv) -> list[str]:
    """cli_cold: exit 0 and the command's own pass line; sweep CSV byte-identical."""
    if returncode != 0:
        return [f"{command} exited with {returncode}"]
    problems = []
    if command == "truth-table":
        if "off-diagonal magnitudes < 1e-10: pass" not in stdout:
            problems.append("truth-table pass line missing")
        fid = _field(stdout, "process fidelity vs ideal = ")
        if fid is None or not fid >= FIDELITY_MIN:
            problems.append(f"truth-table fidelity {fid}")
    elif command == "simulate":
        prob = _field(stdout, "herald probability = ")
        if prob is None or not abs(prob - HERALD_P) <= PROB_TOL:
            problems.append(f"simulate herald probability {prob}")
        fid = _field(stdout, "process fidelity vs ideal = ")
        if fid is None or not fid >= FIDELITY_MIN:
            problems.append(f"simulate fidelity {fid}")
    elif command == "design":
        if "  #1  L = " not in stdout:
            problems.append("design printed no ranked length")
    elif command == "sweep":
        if csv_bytes is None or csv_bytes != expected_csv:
            problems.append("sweep CSV differs from the in-process render_csv")
    elif command == "check":
        if "all 8 acceptance criteria passed" not in stdout:
            problems.append("check pass line missing")
    else:
        problems.append(f"unknown command {command}")
    return problems
