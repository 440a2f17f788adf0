"""The benchmark's tracer must still find every entry point it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_wrapped_entry_point(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--", "--version"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["missing"] == []
