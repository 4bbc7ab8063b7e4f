"""Layer microbenchmarks for the flow and stage-Hamiltonian hot paths.

Run from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

The tier-1 suite does not collect this file (``testpaths = ["tests"]``);
the end-to-end benchmark lives in ``bench/``.
"""

import numpy as np
import pytest

from reebcut import ConjugatorSpec, FlowSettings, conjugated_stage, periodic_point_scan
from reebcut.geometry import TWO_PI, polar_grid


@pytest.fixture(scope="module")
def small_stage():
    # the tier-1 stage fixture's conjugator on a coarse W-field grid
    spec = ConjugatorSpec(amplitude=0.12, delta=0.2, mode=2, r_inner=0.2)
    return conjugated_stage(2, 1, 3, spec, w_grid=128)


def test_periodic_point_scan(benchmark, small_stage):
    grid = polar_grid(2, 4, r_max=0.75, include_center=False)
    settings = FlowSettings(step=TWO_PI / 200)
    records = benchmark.pedantic(
        periodic_point_scan, args=(small_stage.hamiltonian, 3, grid),
        kwargs={"tol": 1e-5, "settings": settings}, rounds=3, iterations=1,
    )
    assert records and all(r.period == 3 for r in records)


def test_stage_velocity_single_point(benchmark, small_stage):
    point = np.array([0.3, 0.2])
    v = benchmark(small_stage.hamiltonian.velocity, 0.0, point)
    assert v.shape == (2,) and np.all(np.isfinite(v))
