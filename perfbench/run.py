"""fockgate benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload phase_scan --seed 1 --seconds 25 --trace 0

Run from the repository root; fockgate is imported from ./src.  One
thread drives all load and waits for each op before sending the next (one
CLI subprocess at a time for cli_cold).  Every op is checked right after
its timed call, outside the timed interval; a failed check, an exception
or a nonzero exit counts in `failed`.  The last line of stdout is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run.  Lines before it are a readable report and the
environment.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
DEV_SEED = 1  # seed used while writing the benchmark
HELD_OUT_SEED = 20211013  # reserved for confirming later performance claims

# The shipped netlist's elements in application order; names of per-element metrics.
ELEMENTS = ("PBS1", "F1", "HWP1", "PPBS", "F2", "HWP2", "PBS3", "HWP3", "PBS2", "DET")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    from concurrent.futures import ThreadPoolExecutor

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    pool = ThreadPoolExecutor()  # starts no thread until work is submitted
    workers = pool._max_workers
    pool.shutdown()
    role = {DEV_SEED: "dev", HELD_OUT_SEED: "held-out"}.get(seed, "other")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "seed": seed,
        "seed_role": role,
        "tolerance_sweep_pool_workers": workers,
    }


def make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, workdir)


def probe_setup(args, workdir: Path) -> int:
    """Set-up as a user pays it: import, build inputs, one warm-up op.

    cli_cold's set-up is writing the physics JSON (done when the workload
    is built); its ops are fresh processes, so it has no warm-up op.
    """
    wl = make_workload(args.workload, args.seed, workdir)
    inp = wl.next_input()
    if args.workload != "cli_cold":
        wl.run(inp)
    return 0


def measure_setup(args, workdir: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload",
               args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return times


def check_op(wl, inp, result, error) -> list[str]:
    """Problems with one op; a check that raises is a failed op, never fatal."""
    if error:
        return [error]
    try:
        return wl.check(inp, result)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def note(inp, problems) -> str:
    return f"{inp!r:.120}: {'; '.join(problems)}"


def check_all(wl, records) -> tuple[int, list[str]]:
    failed, notes = 0, []
    for inp, result, error in records:
        problems = check_op(wl, inp, result, error)
        if problems:
            failed += 1
            if len(notes) < 5:
                notes.append(note(inp, problems))
    return failed, notes


def run_op(fn, inp):
    try:
        return fn(inp), None
    except Exception as exc:  # an op that raises is a failed op, never fatal
        return None, f"{type(exc).__name__}: {exc}"


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (Python's 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def untraced(args, workdir: Path):
    """The timed loop: --seconds of op time, each op checked after its call.

    Only the latency of an op is kept, so the process's memory does not
    grow with the number of ops completed.  Returns the latencies, the
    failures, and the peak resident memory in KiB: of this process, or for
    cli_cold of its largest CLI child.
    """
    wl = make_workload(args.workload, args.seed, workdir)
    warm = wl.next_input()
    _, error = run_op(wl.run, warm)
    if error:
        raise RuntimeError(f"warm-up op failed: {error}")
    whole = wl.pass_size if args.workload == "cli_cold" else 1
    latencies = array("d")
    busy = 0.0
    failed, notes = 0, []
    # cli_cold stops only at a cycle boundary, so every run has the same command mix
    while len(latencies) % whole or busy < args.seconds:
        inp = wl.next_input()
        s = time.perf_counter()
        result, error = run_op(wl.run, inp)
        latency = time.perf_counter() - s
        latencies.append(latency)
        busy += latency
        problems = check_op(wl, inp, result, error)
        if problems:
            failed += 1
            if len(notes) < 5:
                notes.append(note(inp, problems))
        del result
    if args.workload == "cli_cold":
        peak_kb = wl.peak_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return latencies, failed, notes, peak_kb


def importtime(wl) -> dict[str, float]:
    """cli.import_* from `python -X importtime`, once per command kind (medians).

    numpy is its cumulative time; fockgate is the cumulative time of every
    top-level fockgate import (the package, then what `cli` pulls in)
    less numpy where the package imports it.
    """
    numpy_ms, own_ms = [], []
    for _ in range(wl.pass_size):
        inp = wl.next_input()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fockgate.cli", *inp.argv],
                              env=wl.env, capture_output=True, text=True, timeout=120)
        numpy = own = 0.0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative = int(fields[1]) / 1e3
            name = fields[2].strip()
            top_level = not fields[2].startswith("   ")
            if name == "numpy" and not numpy:
                numpy = cumulative if fields[2].startswith("   ") else 0.0
            elif top_level and (name == "fockgate" or name.startswith("fockgate.")):
                own += cumulative
        numpy_ms.append(numpy)
        own_ms.append(own - numpy)
    return {
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.import_fockgate_ms": statistics.median(own_ms),
    }


def run_pass(run, ops, tracer=None):
    """Run the ops once, in order; with a tracer, record their spans."""
    records, latencies = [], []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i, inp in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            s = time.perf_counter()
            result, error = run_op(run, inp)
            latencies.append(time.perf_counter() - s)
            records.append((inp, result, error))
    finally:
        spent = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return records, latencies, spent


def traced(args, workdir: Path):
    """Per-layer run: alternate untraced and traced passes over one fixed op list.

    Counters come from the first traced pass, so they repeat exactly for a
    seed; times are summed over all traced passes.
    """
    from tracer import Aggregate, Tracer, dump_spans
    from workloads import CLI_CYCLE

    wl = make_workload(args.workload, args.seed, workdir)
    metrics = {"cli.import_numpy_ms": 0.0, "cli.import_fockgate_ms": 0.0}
    cli_cold = args.workload == "cli_cold"
    if cli_cold:
        metrics.update(importtime(wl))
        wl = make_workload(args.workload, args.seed, workdir)
    run = wl.run_in_process if cli_cold else wl.run
    ops = [wl.next_input() for _ in range(wl.pass_size)]
    _, error = run_op(run, ops[0])
    if error:
        raise RuntimeError(f"warm-up op failed: {error}")

    tracer = Tracer()
    agg = Aggregate()
    cmd_times: dict[str, list[float]] = {c: [] for c in CLI_CYCLE}
    plain_s = traced_s = 0.0
    attempted = failed = 0
    notes: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while agg.ops == 0 or time.perf_counter() < deadline:
        plain, latencies, spent = run_pass(run, ops)
        plain_s += spent
        if cli_cold:
            for inp, t in zip(ops, latencies):
                cmd_times[inp.command].append(t)
        traced_records, _, spent = run_pass(run, ops, tracer)
        traced_s += spent
        spans = tracer.take()
        if agg.counters is None:
            dump_spans(spans, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        agg.add_pass(spans, len(ops))
        for records in (plain, traced_records):
            n_failed, n_notes = check_all(wl, records)
            attempted += len(records)
            failed += n_failed
            notes += n_notes
    metrics.update(agg.metrics(ELEMENTS))
    for command, times in cmd_times.items():
        metrics[f"cli.cmd.{command}_ms"] = statistics.median(times) * 1e3 if times else 0.0
    metrics["trace.ops_per_s_untraced"] = agg.ops / plain_s
    metrics["trace.ops_per_s_traced"] = agg.ops / traced_s
    return metrics, attempted, failed, notes


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in report order."""
    from tracer import ACCEPTANCE_CHECKS
    from workloads import CLI_CYCLE

    out = [("fock.project_herald_ms", "ms")]
    out += [(f"fock.terms_out.{el}", "count") for el in ELEMENTS]
    out += [("fock.terms_peak", "count"), ("fock.herald_yield", "ratio")]
    out += [(f"elements.apply_element_ms.{el}", "ms") for el in ELEMENTS]
    out += [("elements.apply_element_calls", "count"), ("elements.compose_circuit_matrix_ms", "ms"),
            ("elements.amplitude_via_permanent_ms", "ms")]
    out += [(f"gate.{f}_ms", "ms") for f in ("extract_gate", "run_elements", "build_element")]
    out += [("gate.build_element_calls", "count")]
    out += [(f"gate.{f}_ms", "ms")
            for f in ("prepare_input", "herald_pattern", "heralded_output_amplitudes")]
    out += [(f"design.{f}_ms", "ms")
            for f in ("tolerance_sweep", "synthesize_imperfect_elements", "solve_coupler_length")]
    out += [("design.sweep_busy_ratio", "ratio")]
    out += [(f"acceptance.{c}_ms", "ms") for c in ACCEPTANCE_CHECKS]
    out += [("io.render_csv_ms", "ms"), ("io.load_physics_ms", "ms")]
    out += [("cli.import_numpy_ms", "ms"), ("cli.import_fockgate_ms", "ms")]
    out += [(f"cli.cmd.{c}_ms", "ms") for c in CLI_CYCLE]
    out += [("trace.ops_per_s_untraced", "1/s"), ("trace.ops_per_s_traced", "1/s")]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fockgate" / "__init__.py").is_file():
        print(f"error: fockgate sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.probe_setup:
            return probe_setup(args, workdir)
        env = environment(args.seed)
        print("environment " + json.dumps(env))
        if args.trace:
            metrics, attempted, failed, notes = traced(args, workdir)
            result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in per_layer_metrics()}
            print(f"traced run: {attempted} ops checked, {failed} failed; tracing overhead "
                  f"{metrics['trace.ops_per_s_untraced'] / metrics['trace.ops_per_s_traced']:.3f}x "
                  f"(untraced / traced ops_per_s)")
        else:
            setup = measure_setup(args, workdir)
            lat, failed, notes, peak_kb = untraced(args, workdir)
            attempted = len(lat)
            elapsed = sum(lat)
            ms = sorted(x * 1e3 for x in lat)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (attempted / elapsed, "1/s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
            p90 = quantile(ms, 0.90)
            beyond = sum(1 for x in ms if x > p90)
            print(f"{args.workload}: {attempted} ops in {elapsed:.2f} s of op time, "
                  f"error_rate {failed / attempted:.4f} ({failed} of {attempted})")
            print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)}")
            # Reported, not listed: too few samples beyond p90 on fab_sweep and
            # cli_cold, and a median that jumps between host-contention modes.
            print(f"latency_p50_ms {statistics.median(ms):.4f}, latency_p90_ms {p90:.4f} "
                  f"from {len(ms)} samples, {beyond} beyond p90"
                  + ("" if beyond >= 10 else " (fewer than 10: indicative only)"))
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        for note in notes:
            print(f"FAILED {note}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result_metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
