"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Feeds corrupted results to the checks and asserts that `failed` (and so
error_rate) counts them, and asserts that the traced counters repeat
exactly across two runs with the same seed.  Takes about 35 s on 2 cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # also puts ./src on sys.path
import workloads
from tracer import NAME, PARENT, PAYLOAD, THREAD, ID, Aggregate, Tracer


class _Workdir(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=run.OUT))
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def assert_counts(self, wl, records, failed):
        n, _ = run.check_all(wl, records)
        self.assertEqual(n, failed)


class CheckFaults(_Workdir):
    def test_phase_scan_conjugated_phase(self):
        wl = workloads.PhaseScan(3, self.workdir)
        phi, target, control = wl.next_input()
        inp = (1.0, target, control)  # away from 0 and pi, where conjugation is invisible
        good = wl.run(inp)
        gate_result, branch, prob = good
        conj = dataclasses.replace(gate_result, operator=gate_result.operator.conj())
        bad = (conj, branch, prob)
        self.assertEqual(wl.check(inp, good), [])
        self.assertNotEqual(wl.check(inp, bad), [])
        self.assert_counts(wl, [(inp, good, None), (inp, bad, None), (inp, good, None)], 1)

    def test_phase_scan_wrong_branch(self):
        wl = workloads.PhaseScan(3, self.workdir)
        inp = wl.next_input()
        gate_result, branch, prob = wl.run(inp)
        other = wl.run((inp[0], inp[2], inp[1]))  # target and control swapped
        self.assertNotEqual(wl.check(inp, (gate_result, other[1], other[2])), [])

    def test_check_that_raises_counts_as_failed(self):
        wl = workloads.PhaseScan(3, self.workdir)
        inp = wl.next_input()
        gate_result, branch, prob = wl.run(inp)
        shrunk = dataclasses.replace(gate_result, operator=gate_result.operator[:2, :2])
        malformed = [(gate_result, None, prob), (shrunk, branch, prob)]  # each makes the check raise
        for result in malformed:
            with self.assertRaises(Exception):
                wl.check(inp, result)
            self.assertTrue(run.check_op(wl, inp, result, None)[0].startswith("check raised"))
        self.assert_counts(wl, [(inp, (gate_result, branch, prob), None)]
                           + [(inp, r, None) for r in malformed], 2)

    def test_fab_sweep_dropped_row_and_wrong_row(self):
        wl = workloads.FabSweep(3, self.workdir)
        inp = wl.next_input()
        rows = wl.run(inp)
        self.assertEqual(wl.check(inp, rows), [])
        dropped = rows[:-1]
        k = inp.check_row
        skewed = list(rows)
        skewed[k] = dataclasses.replace(rows[k], fidelity=rows[k].fidelity - 1e-6)
        self.assertNotEqual(wl.check(inp, dropped), [])
        self.assertNotEqual(wl.check(inp, skewed), [])
        self.assert_counts(wl, [(inp, rows, None), (inp, dropped, None), (inp, skewed, None),
                                (inp, None, "RuntimeError: boom")], 3)

    def test_cli_cold_nonzero_exit_and_csv(self):
        wl = workloads.CliCold(3, self.workdir)
        ops = [wl.next_input() for _ in range(4)]
        tt, sweep = ops[0], ops[3]
        self.assertEqual((tt.command, sweep.command), ("truth-table", "sweep"))
        good = wl.run(tt)
        self.assertEqual(wl.check(tt, good), [])
        self.assertGreater(wl.peak_child_rss_kb, 10_000)  # the CLI process imports numpy
        failed_exit = dataclasses.replace(good, returncode=1)
        self.assertNotEqual(wl.check(tt, failed_exit), [])
        self.assertNotEqual(wl.check(tt, dataclasses.replace(good, stdout="")), [])
        swept = wl.run_in_process(sweep)
        self.assertEqual(wl.check(sweep, swept), [])
        path = Path(sweep.csv_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
        self.assertNotEqual(wl.check(sweep, swept), [])
        self.assert_counts(wl, [(tt, good, None), (tt, failed_exit, None)], 1)


def traced_pass(workload_cls, seed, workdir):
    wl = workload_cls(seed, workdir)
    ops = [wl.next_input() for _ in range(wl.pass_size)]
    runner = wl.run_in_process if workload_cls is workloads.CliCold else wl.run
    run.run_pass(runner, ops[:1])  # warm-up, untraced
    tracer = Tracer()
    records, _, _ = run.run_pass(runner, ops, tracer)
    spans = tracer.take()
    agg = Aggregate()
    agg.add_pass(spans, len(ops))
    failed, _ = run.check_all(wl, records)
    return agg, spans, failed


COUNTERS = ("elements.apply_element_calls", "gate.build_element_calls", "fock.terms_peak",
            "fock.herald_yield") + tuple(f"fock.terms_out.{el}" for el in run.ELEMENTS)


def traced_run(workload: str, seed: int, hash_seed: str) -> dict:
    """One `run.py --trace 1` process; returns its result object."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TracerCounters(_Workdir):
    def test_counters_repeat_exactly_across_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = traced_run(name, 5, "1")
                second = traced_run(name, 5, "2")
                self.assertEqual((first["failed"], second["failed"]), (0, 0))
                counts = [{k: r["metrics"][k]["value"] for k in COUNTERS} for r in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["elements.apply_element_calls"], 0)

    def test_nominal_terms_and_yield(self):
        from fockgate import gate

        tracer = Tracer()
        tracer.install()
        try:
            gate.extract_gate(gate.default_netlist(), 0.7)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        agg = Aggregate()
        agg.add_pass(spans, 1)
        self.assertEqual(agg.counters["apply_calls"], 40)
        det = [len(s[PAYLOAD][1]) for s in sorted(spans, key=lambda s: s[ID])
               if s[NAME] == "elements.apply_element"][9::10]
        self.assertEqual(max(det), 24)  # terms after DET for input |11>
        self.assertAlmostEqual(agg.counters["herald_yield"], 1 / 48, delta=1e-12)

    def test_sweep_spans_parented_across_threads(self):
        _, spans, failed = traced_pass(workloads.FabSweep, 5, self.workdir)
        self.assertEqual(failed, 0)
        sweep = [s for s in spans if s[NAME] == "design.tolerance_sweep"]
        self.assertEqual(len(sweep), 1)
        extracts = [s for s in spans if s[NAME] == "gate.extract_gate"]
        self.assertEqual(len(extracts), 21)
        self.assertTrue(all(s[PARENT] == sweep[0][ID] for s in extracts))
        self.assertGreater(len({s[THREAD] for s in extracts}), 1)

    def test_uninstall_restores_originals(self):
        from fockgate import acceptance, design, gate

        before = (gate.extract_gate, design.extract_gate, acceptance.run_elements,
                  gate.Netlist.__dict__["herald_pattern"])
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(design.extract_gate, before[1])
        tracer.uninstall()
        after = (gate.extract_gate, design.extract_gate, acceptance.run_elements,
                 gate.Netlist.__dict__["herald_pattern"])
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
