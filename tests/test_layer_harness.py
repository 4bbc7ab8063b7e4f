"""The layer microbenchmarks import against the current API.

``benchmarks/test_layers.py`` is not collected here (``testpaths``), and it
imports private names (``_FLOW_BLOCK``, ``_stage_diagnostics``,
``_flow_batch``, ``_run_jobs``, ``_moser_densities``) that a refactor can
rename.  Importing it in a fresh interpreter, as pytest-benchmark would,
resolves every one of them without running a benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "benchmarks" / "test_layers.py"

PROBE = """
import importlib.util, sys

spec = importlib.util.spec_from_file_location("test_layers", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""


def test_layer_harness_imports():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(HARNESS)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
