"""Outside-in tracer for fockgate: wraps public functions where modules bind them.

Nothing under src/ knows about this module.  `install()` replaces every
fockgate module attribute that is one of the traced functions (including
by-name imports such as `design.extract_gate` or `acceptance.run_elements`)
with a wrapper that records a span; `uninstall()` puts the originals back,
so untraced measurements run with no wrapper at all.

A span is (id, parent, thread, op, name, wall_start, wall_end, cpu_start,
cpu_end, payload).  Spans stay in memory until the caller takes them.
`tolerance_sweep` evaluates grid points on pool threads; a span opened on
a thread with nothing open gets the innermost span open on the thread that
created the tracer as its parent, so those `extract_gate` spans hang under
the sweep span.  Self time is thread CPU time (`time.thread_time`), so time
a pool thread spends waiting for the interpreter lock counts in no layer;
`design.sweep_busy_ratio` reports that waiting from wall times.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

# Traced functions: metric name -> (defining module, attribute path).
TARGETS = {
    "fock.project_herald": ("fockgate.fock", "project_herald"),
    "elements.apply_element": ("fockgate.elements", "apply_element"),
    "elements.compose_circuit_matrix": ("fockgate.elements", "compose_circuit_matrix"),
    "elements.amplitude_via_permanent": ("fockgate.elements", "amplitude_via_permanent"),
    "gate.extract_gate": ("fockgate.gate", "extract_gate"),
    "gate.run_elements": ("fockgate.gate", "run_elements"),
    "gate.build_element": ("fockgate.gate", "build_element"),
    "gate.prepare_input": ("fockgate.gate", "prepare_input"),
    "gate.herald_pattern": ("fockgate.gate", "Netlist.herald_pattern"),
    "gate.heralded_output_amplitudes": ("fockgate.gate", "heralded_output_amplitudes"),
    "design.tolerance_sweep": ("fockgate.design", "tolerance_sweep"),
    "design.synthesize_imperfect_elements": ("fockgate.design", "synthesize_imperfect_elements"),
    "design.solve_coupler_length": ("fockgate.design", "solve_coupler_length"),
    "io.render_csv": ("fockgate.io", "render_csv"),
    "io.load_physics": ("fockgate.io", "load_physics"),
}

ACCEPTANCE_CHECKS = (
    "cphase_correctness",
    "success_probability",
    "ppbs_interference",
    "oracle_equivalence",
    "design_lengths",
    "notch_calibration",
    "tolerance_machinery",
    "conservation_suite",
)
for _check in ACCEPTANCE_CHECKS:
    TARGETS[f"acceptance.{_check}"] = ("fockgate.acceptance", f"check_{_check}")

# Spans whose arguments and result are kept for counters computed after a pass.
_PAYLOAD = {"fock.project_herald", "elements.apply_element", "gate.build_element"}

ID, PARENT, THREAD, OP, NAME, W0, W1, C0, C1, PAYLOAD = range(10)


class Tracer:
    def __init__(self):
        self.op = None  # identifier shared by all spans of the current op
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._local.stack = self._home_stack
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        keep = name in _PAYLOAD
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else 0
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            w0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1 = cpu()
                w1 = perf()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, ident(), tracer.op, name, w0, w1, c0, c1,
                     (args, result) if keep else None)
                )

        return wrapper

    def install(self) -> None:
        if self._patched:
            return
        import fockgate.acceptance, fockgate.cli, fockgate.io  # noqa: F401

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "fockgate" or k.startswith("fockgate."))]
        for name, (modname, attr) in TARGETS.items():
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


class Aggregate:
    """Per-layer totals over traced passes, plus exact counters of the first pass."""

    def __init__(self):
        self.self_cpu = defaultdict(float)  # metric name -> seconds
        self.ops = 0
        self.sweep_busy = 0.0
        self.sweep_wall = 0.0
        self.counters: dict[str, float] | None = None

    def add_pass(self, spans: list[tuple], ops: int) -> None:
        self.ops += ops
        children = defaultdict(list)
        for s in spans:
            children[s[PARENT]].append(s)
        for kids in children.values():
            kids.sort(key=lambda s: s[ID])

        element_of = {}  # apply_element span id -> element name
        for s in spans:
            if s[NAME] != "gate.run_elements":
                continue
            kids = children[s[ID]]
            names = [k[PAYLOAD][0][0].name for k in kids
                     if k[NAME] == "gate.build_element" and k[PAYLOAD][1] is not None]
            applied = [k for k in kids if k[NAME] == "elements.apply_element"]
            for name, k in zip(names, applied):
                element_of[k[ID]] = name

        for s in spans:
            own = s[C1] - s[C0]
            for k in children[s[ID]]:
                if k[THREAD] == s[THREAD]:
                    own -= k[C1] - k[C0]
            self.self_cpu[s[NAME]] += own
            if s[NAME] == "elements.apply_element" and s[ID] in element_of:
                self.self_cpu[f"elements.apply_element_ms.{element_of[s[ID]]}"] += own
            if s[NAME] == "design.tolerance_sweep":
                self.sweep_wall += s[W1] - s[W0]
                self.sweep_busy += sum(k[W1] - k[W0] for k in children[s[ID]]
                                       if k[NAME] == "gate.extract_gate")

        if self.counters is None:
            self.counters = _counters(spans, element_of, ops)

    def metrics(self, element_names) -> dict[str, float]:
        per_op = 1e3 / self.ops if self.ops else 0.0
        out = {}
        for name in TARGETS:
            if name == "elements.apply_element":
                continue
            out[f"{name}_ms"] = self.self_cpu.get(name, 0.0) * per_op
        for el in element_names:
            key = f"elements.apply_element_ms.{el}"
            out[key] = self.self_cpu.get(key, 0.0) * per_op
        out["design.sweep_busy_ratio"] = (
            self.sweep_busy / self.sweep_wall if self.sweep_wall else 0.0
        )
        counters = self.counters or {}
        out["elements.apply_element_calls"] = counters.get("apply_calls", 0.0)
        out["gate.build_element_calls"] = counters.get("build_calls", 0.0)
        out["fock.terms_peak"] = counters.get("terms_peak", 0)
        out["fock.herald_yield"] = counters.get("herald_yield", 0.0)
        for el in element_names:
            out[f"fock.terms_out.{el}"] = counters.get(f"terms_out.{el}", 0.0)
        return out


def _counters(spans, element_of, ops) -> dict[str, float]:
    """Exact counts for one pass; sums are order-independent (fsum, integers)."""
    apply_calls = build_calls = 0
    terms_sum = defaultdict(int)
    terms_n = defaultdict(int)
    peak = 0
    heralded, total = [], []
    for s in spans:
        name = s[NAME]
        if name == "elements.apply_element":
            apply_calls += 1
            out = s[PAYLOAD][1]
            if out is None:
                continue
            peak = max(peak, len(out))
            el = element_of.get(s[ID])
            if el is not None:
                terms_sum[el] += len(out)
                terms_n[el] += 1
        elif name == "gate.build_element":
            build_calls += 1
        elif name == "fock.project_herald" and s[PAYLOAD][1] is not None:
            state = s[PAYLOAD][0][0]
            heralded.append(s[PAYLOAD][1][1])
            total.append(math.fsum(abs(a) ** 2 for _, a in state.items()))
    out = {
        "apply_calls": apply_calls / ops,
        "build_calls": build_calls / ops,
        "terms_peak": peak,
        "herald_yield": math.fsum(heralded) / math.fsum(total) if total else 0.0,
    }
    for el, n in terms_n.items():
        out[f"terms_out.{el}"] = terms_sum[el] / n
    return out


def dump_spans(spans, path) -> None:
    """Write spans as JSON lines; times in ms from the first span's start."""
    t0 = min((s[W0] for s in spans), default=0.0)
    threads: dict[int, int] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(spans, key=lambda s: s[ID]):
            rec = {
                "id": s[ID], "parent": s[PARENT],
                "thread": threads.setdefault(s[THREAD], len(threads)),
                "op": s[OP], "name": s[NAME],
                "start_ms": (s[W0] - t0) * 1e3, "wall_ms": (s[W1] - s[W0]) * 1e3,
                "cpu_ms": (s[C1] - s[C0]) * 1e3,
            }
            if s[PAYLOAD] is not None and s[PAYLOAD][1] is not None:
                if s[NAME] == "gate.build_element":
                    rec["element"] = s[PAYLOAD][0][0].name
                elif s[NAME] == "elements.apply_element":
                    rec["terms_out"] = len(s[PAYLOAD][1])
            fh.write(json.dumps(rec) + "\n")
