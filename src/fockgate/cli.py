"""Command-line front end: simulate, truth-table, design, sweep, check.

Exit statuses: 0 success, 2 configuration/input error, 3 netlist or
physics validation error, 4 acceptance-check failure in check mode.
All angles are radians; qubit amplitudes are complex pairs "re,im"
joined by ':' (alpha:beta).  Outputs are deterministic: identical
configurations produce byte-identical tables.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from pathlib import Path

from .design import (
    COUPLER_DESIGNS,
    DIMENSIONS,
    CouplerPhysics,
    enumerate_v_perfect_lengths,
    solve_coupler_length,
    sweep_deltas,
    tolerance_sweep,
)
from .gate import (
    BASIS_LABELS,
    Netlist,
    NetlistError,
    ProgramState,
    default_netlist,
    extract_gate,
    prepare_input,
    run_heralded,
)
from .io import (
    PhysicsError,
    format_complex,
    format_number,
    load_netlist,
    load_physics,
    render_csv,
    write_csv,
    write_svg_line_plot,
)


class ConfigError(Exception):
    """Bad invocation or unreadable input; maps to exit status 2."""


def finite_float(text: str) -> float:
    """A finite float; argparse type for --phi and --step."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"number must be finite, got {text!r}")
    return value


def parse_qubit(text: str) -> tuple[complex, complex]:
    """Parse 're,im:re,im' into (alpha, beta).

    A pair whose |alpha|^2 + |beta|^2 is within 1e-6 of 1 but not within
    the 1e-12 `qubit_state` requires (amplitudes written to about 8
    digits) is divided by its norm; any other pair is returned unchanged.
    """
    try:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError("expected two components separated by ':'")
        amps = []
        for part in parts:
            re_s, im_s = part.split(",")
            amps.append(complex(float(re_s), float(im_s)))
    except ValueError as exc:
        raise ConfigError(f"cannot parse qubit amplitudes {text!r}: {exc}") from exc
    if not all(cmath.isfinite(a) for a in amps):
        raise ConfigError(f"qubit amplitudes must be finite, got {text!r}")
    alpha, beta = amps
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if 1e-12 < abs(norm_sq - 1.0) <= 1e-6:
        norm = math.sqrt(norm_sq)
        alpha, beta = alpha / norm, beta / norm
    return alpha, beta


def parse_range(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {text!r} (expected LO:HI)") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range bounds must be finite, got {text!r}")
    return lo, hi


def _input_file(path: str, kind: str) -> Path:
    """`path` as a Path; ConfigError naming the `kind` of file unless it is a regular file."""
    p = Path(path)
    try:
        readable = p.is_file()
    except OSError:  # e.g. a name too long for the file system
        readable = False
    if not readable:
        raise ConfigError(f"{kind} file not readable: {path}")
    return p


def _load_netlist(path: str | None) -> Netlist:
    if path is None:
        return default_netlist()
    return load_netlist(_input_file(path, "netlist"))


def _load_physics(path: str | None) -> CouplerPhysics:
    if path is None:
        return CouplerPhysics()
    return load_physics(_input_file(path, "physics"))


def _phase_text(phase: float) -> str:
    """A measured controlled phase for display; NaN means |00> never heralds."""
    if math.isnan(phase):
        return "undefined (|00> never heralds)"
    return f"{format_number(phase)} rad"


def cmd_simulate(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args.netlist)
    target = parse_qubit(args.target)
    control = parse_qubit(args.control)
    try:
        state = prepare_input(netlist, target, control, ProgramState(args.phi))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    branch, prob = run_heralded(netlist, state)
    result = extract_gate(netlist, args.phi)

    print(f"program phase phi = {format_number(args.phi)} rad")
    print(f"herald probability = {format_number(prob)}")
    print("heralded output state (sub-normalized):")
    mode_labels = [repr(m) for m in branch.modes]
    for vec, amp in branch.items():
        occupied = [
            f"{mode_labels[i]}" + (f"^{n}" if n > 1 else "")
            for i, n in enumerate(vec)
            if n > 0
        ]
        label = " ".join(occupied) if occupied else "vacuum"
        print(f"  {format_complex(amp):>32}  |{label}>")
    print(f"extracted controlled phase = {_phase_text(result.measured_phase)}")
    print(f"process fidelity vs ideal = {format_number(result.fidelity)}")

    if args.output:
        header = ["phi_rad", "herald_probability", "measured_phase_rad", "fidelity"]
        row = [args.phi, prob, result.measured_phase, result.fidelity]
        write_csv(args.output, header, [row])
        print(f"wrote {args.output}")
    return 0


def cmd_truth_table(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args.netlist)
    result = extract_gate(netlist, args.phi)
    print(f"heralded operator columns (inputs |00>,|01>,|10>,|11>), phi = "
          f"{format_number(args.phi)} rad:")
    for i in range(4):
        row = "  ".join(f"{format_complex(result.operator[i, j]):>28}" for j in range(4))
        print(f"  |{BASIS_LABELS[i]}>  {row}")
    print("per-input herald probability:")
    rows = []
    for label in BASIS_LABELS:
        prob = result.herald_probability[label]
        print(f"  |{label}>  {format_number(prob)}")
        rows.append(
            [label, prob]
            + [result.operator[i, BASIS_LABELS.index(label)] for i in range(4)]
        )
    diag_ok = result.max_offdiagonal < 1e-10
    print(f"off-diagonal magnitudes < 1e-10: {'pass' if diag_ok else 'FAIL'} "
          f"(max {result.max_offdiagonal:.3e})")
    print(f"measured controlled phase = {_phase_text(result.measured_phase)}")
    print(f"process fidelity vs ideal = {format_number(result.fidelity)}")
    if args.output:
        header = [
            "input_basis",
            "herald_probability",
            "amp_out_00",
            "amp_out_01",
            "amp_out_10",
            "amp_out_11",
        ]
        write_csv(args.output, header, rows)
        print(f"wrote {args.output}")
    return 0


def _design_range(args: argparse.Namespace, default: tuple[float, float]) -> tuple[float, float]:
    if not args.range:
        return default
    lo, hi = parse_range(args.range)
    if not 0 <= lo < hi:
        raise ConfigError(f"--range needs 0 <= LO < HI, got {args.range!r}")
    return lo, hi


def cmd_design(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    physics = _load_physics(args.physics)
    design = COUPLER_DESIGNS[args.element]
    nominal = design.reference_um
    length_range = _design_range(args, design.search_range_um)
    try:
        if args.element == "f2":
            solutions = enumerate_v_perfect_lengths(physics, length_range, args.count)
        else:
            solutions = solve_coupler_length(
                physics,
                targets=design.targets,
                weights=design.weights,
                length_range=length_range,
                count=args.count,
            )
    except ValueError as exc:  # a range too long to scan
        raise ConfigError(str(exc)) from exc
    rows = []
    if args.element == "f2":
        print(f"V-preserving filter lengths in [{length_range[0]}, {length_range[1]}] um "
              f"(bar_H target 1/3):")
        for rank, sol in enumerate(solutions, start=1):
            print(
                f"  #{rank}  L = {format_number(sol.length_um)} um, "
                f"bar_H = {format_number(sol.bar_h)} "
                f"(residual vs 1/3: {format_number(sol.bar_h - design.targets[0])}), "
                f"bar_V = {format_number(sol.bar_v)}"
            )
            rows.append(
                [rank, sol.length_um, sol.bar_h, sol.bar_v, sol.residual,
                 nominal, sol.length_um - nominal]
            )
    else:
        t_h, t_v = design.targets
        print(
            f"ranked coupler lengths for {args.element} "
            f"(targets bar_H={format_number(t_h)}, bar_V={format_number(t_v)}, "
            f"range [{length_range[0]}, {length_range[1]}] um):"
        )
        for rank, sol in enumerate(solutions, start=1):
            delta = sol.length_um - nominal
            print(
                f"  #{rank}  L = {format_number(sol.length_um)} um, "
                f"bar_H = {format_number(sol.bar_h)}, "
                f"bar_V = {format_number(sol.bar_v)}, "
                f"residual = {format_number(sol.residual)}, "
                f"reference {format_number(nominal)} um "
                f"(delta {format_number(delta)} um)"
            )
            rows.append(
                [rank, sol.length_um, sol.bar_h, sol.bar_v, sol.residual,
                 nominal, delta]
            )
    if args.output:
        header = [
            "rank",
            "length_um",
            "bar_H_power",
            "bar_V_power",
            "residual",
            "reference_um",
            "delta_um",
        ]
        write_csv(args.output, header, rows)
        print(f"wrote {args.output}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.step <= 0:
        raise ConfigError(f"--step must be positive, got {format_number(args.step)}")
    delta_range = parse_range(args.range) if args.range else (-10.0, 10.0)
    if delta_range[0] > delta_range[1]:
        raise ConfigError(f"--range needs LO <= HI, got {args.range!r}")
    try:
        sweep_deltas(delta_range, args.step)
    except ValueError as exc:  # a grid too large to evaluate
        raise ConfigError(str(exc)) from exc
    netlist = _load_netlist(args.netlist)
    physics = _load_physics(args.physics)
    if not physics.configured(args.dimension):
        print(
            f"error: sensitivities for dimension {args.dimension!r} are all zero.\n"
            "Configure 'sensitivities_um_per_nm' in the physics JSON (um of "
            "beat-length shift per nm of geometry change) before sweeping.",
            file=sys.stderr,
        )
        return 2
    try:
        rows = tolerance_sweep(
            netlist, physics, args.dimension, delta_range, args.step, phi=args.phi
        )
    except NetlistError:
        raise
    except ValueError as exc:  # a perturbed beat or angle outside the sensitivity model
        raise PhysicsError(str(exc)) from exc
    element_names = [name for name, _, _ in rows[0].element_bars]
    header = ["delta_nm"]
    for name in element_names:
        header += [f"{name}_bar_H", f"{name}_bar_V"]
    header += ["p_00", "p_01", "p_10", "p_11", "fidelity"]
    table = []
    for r in rows:
        row = [r.delta_nm]
        for _, bh, bv in r.element_bars:
            row += [bh, bv]
        row += list(r.herald_probabilities) + [r.fidelity]
        table.append(row)
    text = render_csv(header, table)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.plot:
        deltas = [r.delta_nm for r in rows]
        write_svg_line_plot(
            args.plot,
            deltas,
            {
                "fidelity": [r.fidelity for r in rows],
                "herald probability (mean x 48)": [
                    48.0 * sum(r.herald_probabilities) / 4.0 for r in rows
                ],
            },
            title=f"gate response vs {args.dimension} deviation",
            xlabel="deviation (nm)",
            ylabel="fidelity / scaled probability",
        )
        print(f"wrote {args.plot}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    netlist = _load_netlist(args.netlist)
    # imported here: no other command needs the acceptance battery at start-up
    from . import acceptance

    results = acceptance.run_all(netlist, seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} acceptance criteria failed")
        return 4
    print(f"all {len(results)} acceptance criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockgate",
        description=(
            "Heralded programmable-CPHASE gate workbench: Fock-state "
            "simulation plus directional-coupler design arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one heralded gate simulation")
    sim.add_argument("--phi", type=finite_float, required=True, help="program phase (radians)")
    sim.add_argument("--target", required=True, help="target qubit 're,im:re,im'")
    sim.add_argument("--control", required=True, help="control qubit 're,im:re,im'")
    sim.add_argument("--netlist", help="netlist JSON (default: shipped circuit)")
    sim.add_argument("--output", help="write a result record CSV")
    sim.set_defaults(func=cmd_simulate)

    tt = sub.add_parser("truth-table", help="extract the heralded 4x4 operator")
    tt.add_argument("--phi", type=finite_float, required=True)
    tt.add_argument("--netlist")
    tt.add_argument("--output", help="write per-input rows CSV")
    tt.set_defaults(func=cmd_truth_table)

    de = sub.add_parser("design", help="solve coupler lengths for an element")
    de.add_argument(
        "--element", required=True, choices=tuple(COUPLER_DESIGNS)
    )
    de.add_argument("--physics", help="physics JSON (default: shipped values)")
    de.add_argument("--range", help="length range LO:HI in um")
    de.add_argument("--count", type=int, default=3, help="solutions to report")
    de.add_argument("--output", help="write candidates CSV")
    de.set_defaults(func=cmd_design)

    sw = sub.add_parser("sweep", help="fabrication-tolerance sweep")
    sw.add_argument("--dimension", required=True, choices=DIMENSIONS)
    sw.add_argument("--physics", help="physics JSON with nonzero sensitivities")
    sw.add_argument("--netlist")
    sw.add_argument(
        "--range",
        help="deviation range LO:HI in nm (default -10:10); give a negative LO as --range=-3:7",
    )
    sw.add_argument("--step", type=finite_float, default=1.0, help="grid step in nm")
    sw.add_argument("--phi", type=finite_float, default=math.pi, help="program phase (radians)")
    sw.add_argument("--output", help="write sweep table CSV")
    sw.add_argument("--plot", help="write SVG line plot")
    sw.set_defaults(func=cmd_sweep)

    ck = sub.add_parser("check", help="run the acceptance suite")
    ck.add_argument("--netlist")
    ck.add_argument("--seed", type=int, default=7, help="seed for sampled diagnostics")
    ck.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NetlistError, PhysicsError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
