"""The demos run against the current API.

The fast demos are run to completion in a fresh interpreter; the slow ones
(02 and 05) only have every ``reebcut`` name they import resolved.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _demo(prefix):
    (path,) = DEMOS.glob(f"{prefix}_*.py")
    return path


@pytest.mark.parametrize("prefix", ["01", "03", "04"])
def test_fast_demo_runs(prefix, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(_demo(prefix))], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("prefix", ["02", "05"])
def test_slow_demo_imports_resolve(prefix):
    tree = ast.parse(_demo(prefix).read_text())
    imported = [(node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "reebcut"
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
