"""Start-up cost: no scenario loads scipy or a pool, and only a seeded one
loads ``numpy.random``.

Importing ``scipy.interpolate`` loads some 600 modules and about 50 MiB.
The spline fields load scipy's FITPACK module ``_dfitpack`` on its own, so
no scenario imports ``scipy`` or ``scipy.interpolate``, the spline
scenarios (``moser``, ``pseudorotation``) included.  The W-field flow forks
its workers with ``os.fork`` alone, so neither ``multiprocessing`` nor
``concurrent.futures`` is imported either.  ``numpy.random`` costs some
6 MiB and 11 ms: ``ellipsoid`` and ``return-map`` read the run's seeded
generator and ``self-linking`` draws its projection poles from one, but
no other scenario loads it.  ``reports.run`` loads it for these three
before its clock starts, so no runner finds it missing.  Each check runs
in a fresh interpreter,
because this test process has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reebcut.reports import SCENARIOS

SRC = Path(__file__).resolve().parent.parent / "src"

# a small config of every scenario, the unseeded ones first; the
# pseudorotation one builds one 512 x 512 W-field and flows no orbit
CONFIGS = {
    "cut-check": {"hamiltonian": {"type": "cosine-defect", "h": 3, "c": 0.4,
                                  "d": 0.5}, "k_max": 2},
    "poincare-lemma": {"n": 32, "threshold": 1.0},
    "moser": {"n": 32},
    "pseudorotation": {"h": 2, "count": 1, "orbit_iterations": 0},
    "ellipsoid": {"a0": 1.4142, "h": 2, "pullback_grid": [8, 8, 8],
                  "self_linking": False},
    "return-map": {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
                   "n_points": 4, "step": 0.05},
    "self-linking": {"a0": 1.4142, "h": 2, "n_samples": 256},
}
SEEDED = ("ellipsoid", "return-map", "self-linking")

# modules that cost import time and that no run needs
HEAVY = ("scipy", "scipy.interpolate", "multiprocessing", "concurrent.futures")
RANDOM = "numpy.random"

PROBE = """
import json, sys, tempfile
from pathlib import Path

import reebcut.cli

heavy = json.loads(sys.argv[2])


def loaded_heavy():
    return [name for name in heavy if name in sys.modules]


loaded = {"import reebcut.cli": loaded_heavy()}
import reebcut
from reebcut import moser, pseudorotations, reports
from reebcut.reports import RunConfig, run

same = {
    "stage_sequence": reebcut.stage_sequence is pseudorotations.stage_sequence,
    "ComposedHamiltonian":
        reebcut.ComposedHamiltonian is pseudorotations.ComposedHamiltonian,
    "moser_flow": reebcut.moser_flow is moser.moser_flow,
}
# whether numpy.random is loaded as each runner starts, off the clock
on_entry = {}


def watched(scenario, runner):
    def run_watched(params, rng):
        on_entry[scenario] = "numpy.random" in sys.modules
        return runner(params, rng)
    return run_watched


for scenario, runner in list(reports._RUNNERS.items()):
    reports._RUNNERS[scenario] = watched(scenario, runner)
with tempfile.TemporaryDirectory() as out:
    for scenario, params in json.loads(sys.argv[1]).items():
        run(RunConfig.parse(scenario, params, out_dir=Path(out) / scenario,
                            plots=True))
        loaded[scenario] = loaded_heavy()
print(json.dumps({"loaded": loaded, "same": same, "on_entry": on_entry}))
"""


def _probe(configs, watched):
    """The watched modules loaded after ``import reebcut.cli`` and after
    each scenario of ``configs``, run in turn in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(configs), json.dumps(watched)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_only_scenarios_do_not_load_scipy():
    assert set(CONFIGS) == set(SCENARIOS)
    # the unseeded scenarios run first, so each is seen to load no
    # numpy.random of its own
    result = _probe(CONFIGS, [*HEAVY, RANDOM])
    assert result["loaded"] == {
        name: [RANDOM] if name in SEEDED else []
        for name in ["import reebcut.cli", *CONFIGS]
    }
    assert all(result["same"].values()), result["same"]


@pytest.mark.parametrize("scenario", SEEDED)
def test_seeded_scenario_loads_numpy_random(scenario):
    result = _probe({scenario: CONFIGS[scenario]}, [RANDOM])
    assert result["loaded"] == {"import reebcut.cli": [], scenario: [RANDOM]}
    # reports.run loads it before its clock starts, not the runner
    assert result["on_entry"] == {scenario: True}
