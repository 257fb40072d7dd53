"""Compare two source trees on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload phase_scan --seed 20211013 --pairs 10 --seconds 25

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each tree, from that tree's root; the side that runs
first alternates from pair to pair, the parent first in pair 1.  The
end-to-end metrics, each with the direction in which it is better and
the bound by which it may worsen, are read from the change tree's
BENCHMARK.json.  For each metric the report lists both sides' runs,
medians and quartiles, the pairs the change wins (ties count for
neither) and two verdicts:

- gain: the change wins at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by no more
  than the bound, relative to the parent's median.  When either side's
  interquartile range, relative to the parent's median, is wider than the
  bound, the verdict is "unresolved", unless every run of the change is
  better than every run of the parent.

The operations that failed on each side are summed too; a gain does not
count when the change fails more of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary and verdicts for one metric; `parent[k]` and `change[k]` are pair k's runs.

    `better` is "higher" or "lower"; `bound` is the largest worsening
    allowed, as a fraction of the parent's median.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if not parent or len(parent) != len(change):
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (c_med - p_med)  # positive when the change is better
    p_iqr = p_q3 - p_q1
    gain = wins * 10 >= 9 * len(parent) and gap > p_iqr
    scale = abs(p_med)
    worsening = -gap / scale if scale else (0.0 if gap >= 0 else float("inf"))
    spread = max(p_iqr, c_q3 - c_q1) / scale if scale else 0.0
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        regression = "unresolved"
    elif worsening <= bound:
        regression = "within bound"
    else:
        regression = "worse than bound"
    return {
        "parent": {"runs": list(parent), "q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"runs": list(change), "q1": c_q1, "median": c_med, "q3": c_q3},
        "wins": wins,
        "pairs": len(parent),
        "ratio": c_med / p_med if p_med else float("nan"),
        "gain": gain,
        "regression": regression,
        "worsening": worsening,
        "spread": spread,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced benchmark run in `tree`."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(name: str, unit: str, result: dict) -> list[str]:
    def side(label: str) -> str:
        s = result[label]
        runs = ", ".join(f"{v:.4g}" for v in s["runs"])
        return (f"  {label:6} median {s['median']:.4g}  quartiles {s['q1']:.4g} .. {s['q3']:.4g}"
                f"  runs {runs}")

    return [
        f"{name} ({unit})",
        side("parent"),
        side("change"),
        f"  change/parent median {result['ratio']:.4f}; change wins {result['wins']}"
        f"/{result['pairs']} pairs",
        f"  gain: {'yes' if result['gain'] else 'no'}; regression: {result['regression']}"
        f" (worsening {result['worsening']:+.2%}, spread {result['spread']:.2%})",
    ]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    p.add_argument("--change", type=Path, required=True, help="root of the change tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for label in order:
            tree = args.parent if label == "parent" else args.change
            runs[label].append(run_once(tree, args.workload, args.seed, args.seconds))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for label in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[label])
        attempted = sum(r["attempted"] for r in runs[label])
        print(f"{label}: {failed} of {attempted} ops failed")
    for metric in metrics:
        name = metric["name"]
        values = {label: [r["metrics"][name]["value"] for r in runs[label]] for label in runs}
        result = compare(values["parent"], values["change"], metric["better"], metric["bound"])
        print("\n".join(report(name, metric["unit"], result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
