"""tools/digest.py runs and prints the same digests twice."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_digest_runs_and_is_repeatable():
    run = subprocess.run(
        [sys.executable, str(_PATH)], capture_output=True, text=True, timeout=120, check=True
    )
    lines = [tuple(line.split(" ")) for line in run.stdout.splitlines()]
    assert [name for name, _ in lines] == [
        "extract_gate", "tolerance_sweep", "tolerance_sweep_physics_file", "tolerance_sweep_checked", "layouts",
        "run_heralded", "run_heralded_foreign", "total",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    assert digest.digests() == lines  # the same bytes in a second run, in this process
