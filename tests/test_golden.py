"""Golden outputs: what each CLI command prints and writes, byte for byte.

Every case runs `fockgate.cli.main` in a fresh directory with `--output
out.csv` where the command takes one, and compares its stdout and CSV
with `tests/golden/<case>.out` and `<case>.csv`.  The `check` battery's
`runtime` fields are the only masked text.  The sweeps read
`tests/golden/physics.json`.  To write the files again, after a change
that is meant to alter the tables, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from pathlib import Path

import pytest

from fockgate import cli

GOLDEN = Path(__file__).with_name("golden")
PHYSICS = str(GOLDEN / "physics.json")

CASES = {
    **{
        f"truth-table-phi{label}": ["truth-table", "--phi", phi, "--output", "out.csv"]
        for label, phi in (("0", "0"), ("1", "1.0"), ("pi", repr(math.pi)))
    },
    "simulate": ["simulate", "--phi", "1.0", "--target", "0.6,0:0.8,0",
                 "--control", "0.8,0:0,0.6", "--output", "out.csv"],
    **{
        f"design-{element}": ["design", "--element", element, "--output", "out.csv"]
        for element in ("pbs", "ppbs", "f1", "f2")
    },
    **{
        f"sweep-{dim}": ["sweep", "--dimension", dim, "--step", "5", "--physics", PHYSICS,
                         "--output", "out.csv"]
        for dim in ("width", "height", "gap")
    },
    "check": ["check", "--seed", "0"],
}


def run_case(argv: list[str], workdir: Path) -> tuple[str, str | None]:
    """The stdout of `fockgate argv` run in `workdir`, and the CSV it wrote there (or None)."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert status == 0, f"{argv} exited {status}"
    text = re.sub(r"runtime [0-9.]+s", "runtime <masked>", stdout.getvalue())
    csv = workdir / "out.csv"
    return text, csv.read_text(encoding="utf-8") if csv.exists() else None


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_equals_the_golden_files(case, tmp_path):
    text, csv = run_case(CASES[case], tmp_path)
    assert text == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    golden_csv = GOLDEN / f"{case}.csv"
    assert csv == (golden_csv.read_text(encoding="utf-8") if golden_csv.exists() else None)


def write_golden(scratch: Path) -> None:
    """Write every case's stdout and CSV under GOLDEN, running the cases in `scratch`."""
    for case, argv in CASES.items():
        workdir = scratch / case
        workdir.mkdir()
        text, csv = run_case(argv, workdir)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8", newline="\n")
        if csv is not None:
            (GOLDEN / f"{case}.csv").write_text(csv, encoding="utf-8", newline="\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_golden(Path(scratch))
