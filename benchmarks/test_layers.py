"""Layer microbenchmarks for the flow, stage, composite and Moser hot paths.

Run from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

The tier-1 suite does not collect this file (``testpaths = ["tests"]``);
the end-to-end benchmark lives in ``bench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reebcut import (
    ComposedHamiltonian,
    ConjugatorSpec,
    FlowSettings,
    GridFunction2D,
    MoserSettings,
    RigidRotationHamiltonian,
    conjugated_stage,
    linearized_return,
    moser_flow,
    orbit_statistics,
    periodic_point_scan,
    zero_integral_fixture,
)
from reebcut.geometry import TWO_PI, polar_grid
from reebcut.pseudorotations import (_FLOW_BLOCK, ConjugatedRotationHamiltonian,
                                     DiscDiffeo, _run_jobs)

# the tier-1 fixtures: the composite build is timed on their generator K
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import compact_disc_hamiltonian  # noqa: E402


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


def test_quintic_field_point_ev(benchmark, small_stage):
    # one x-partial of the stage's W-field at one point given as two
    # floats, as the one-point velocity reads it: one FITPACK evaluation
    # and its call overhead
    field = small_stage.hamiltonian.w_field
    field.ev(1, 0, 0.3, 0.2)  # derive the partial before timing
    gx = benchmark(field.ev, 1, 0, 0.3, 0.2)
    assert np.shape(gx) == () and np.isfinite(gx)


def test_orbit_statistics(benchmark, small_stage):
    # single-point return maps: one-point velocity calls dominate
    settings = FlowSettings(step=TWO_PI / 400)
    stats = benchmark.pedantic(
        orbit_statistics, args=(small_stage.hamiltonian, np.array([0.5, 0.0])),
        kwargs={"iterations": 16, "settings": settings}, rounds=3, iterations=1,
    )
    assert stats.completed == 16 and not stats.aborted


# at 128 the support holds one flow block and flows in-process; at 512, the
# CLI default, it holds seven and splits over the CPUs of the affinity set
@pytest.mark.parametrize("grid_n", [128, 512])
def test_wfield_build(benchmark, small_stage, grid_n):
    H = benchmark.pedantic(
        ConjugatedRotationHamiltonian, args=(2, 1, 3, small_stage.conjugator),
        kwargs={"grid_n": grid_n}, rounds=3, iterations=1,
    )
    assert np.isfinite(H.value(0.0, np.array([0.5, 0.0])))


def test_forked_jobs(benchmark):
    # the fork helper's own cost: two jobs that each return a seeded
    # 16,384 x 2 array (one flow block); with two or more CPUs in the
    # affinity set the caller runs one and a forked worker the other, and
    # the worker's array comes back pickled through a pipe
    block = np.random.default_rng(0).uniform(-1.0, 1.0, (_FLOW_BLOCK, 2))
    out = benchmark.pedantic(_run_jobs, args=([block.copy, block.copy],),
                             rounds=30, iterations=1)
    assert all(np.array_equal(a, block) for a in out)


def test_conjugator_inverse_annulus(benchmark, small_stage):
    # 50k points spread over the generator's support annulus, flowed with
    # the step count of the W-field build
    gen = small_stage.conjugator.generator
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(gen.t0, gen.t1, 50_000))
    theta = rng.uniform(0.0, TWO_PI, r.size)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    inv = benchmark.pedantic(DiscDiffeo(gen, steps=150).inverse, args=(pts,),
                             rounds=3, iterations=1)
    assert inv.shape == pts.shape and np.all(np.isfinite(inv))


def test_conjugator_velocity_block(benchmark, small_stage):
    # one generator velocity call on one DiscDiffeo block: 16384 seeded
    # points of the support annulus
    gen = small_stage.conjugator.generator
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(gen.t0, gen.t1, 16_384))
    theta = rng.uniform(0.0, TWO_PI, r.size)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    v = benchmark(gen.velocity, 0.0, pts)
    assert v.shape == pts.shape and np.all(np.isfinite(v))


def test_linearized_return(benchmark):
    # the return-map scenario's variational flow: 2000 seeded points of the
    # rigid H(2, 1, 3), drawn as that scenario draws them, at step 2pi/2000
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(0.05, 0.9, 2000))
    theta = rng.uniform(0.0, TWO_PI, r.size)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    jac = benchmark.pedantic(
        linearized_return, args=(RigidRotationHamiltonian(2, 1, 3), pts),
        kwargs={"settings": FlowSettings(step=TWO_PI / 2000)},
        rounds=3, iterations=1,
    )
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-9


@pytest.mark.parametrize("n_points", [2, 8, 24])
def test_stage_linearized_return(benchmark, small_stage, n_points):
    # one Newton iteration's variational flow in a stage's periodic scan:
    # a small batch of seeded annulus points at the stage sequence's step
    # 2pi/600, where per-call overhead weighs against the batched product
    rng = np.random.default_rng(n_points)
    r = rng.uniform(0.3, 0.75, n_points)
    theta = rng.uniform(0.0, TWO_PI, n_points)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    jac = benchmark.pedantic(
        linearized_return, args=(small_stage.hamiltonian, pts),
        kwargs={"settings": FlowSettings(step=TWO_PI / 600)},
        rounds=5, iterations=1,
    )
    assert jac.shape == (n_points, 2, 2) and np.all(np.isfinite(jac))


def test_composed_build(benchmark):
    # one ComposedHamiltonian build with the composition-law tests'
    # generators (compact K, rigid H2) on a coarse lattice: 32 slices of a
    # 61^2 grid, each two RK4 substeps of K and one quintic spline march
    K = compact_disc_hamiltonian(amp=0.05)
    H2 = RigidRotationHamiltonian(2, 1, 2)
    composite = benchmark.pedantic(
        ComposedHamiltonian, args=(K, H2),
        kwargs={"n_slices": 32, "grid_n": 61}, rounds=3, iterations=1,
    )
    assert np.all(np.isfinite(composite._w2))


def test_moser_field(benchmark):
    # one Moser field evaluation on the 16384 nodes of the moser scenario's
    # n=128 grid (four splines of degree 5 at every node)
    n = 128
    base = zero_integral_fixture(2, n)
    w0 = GridFunction2D(np.ones((n, n)), compact=False)
    w1 = GridFunction2D(1.0 + 0.2 / np.abs(base.values).max() * base.values,
                        compact=False)
    psi = moser_flow(w0, w1, settings=MoserSettings(steps=1))
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    v = benchmark(psi._field, 0.5, nodes)
    assert v.shape == nodes.shape and np.all(np.isfinite(v))


def test_cli_import(benchmark):
    # spawn to ``import reebcut.cli`` in a fresh interpreter: the start-up
    # cost every CLI invocation pays before its scenario runs
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", "import reebcut.cli"]
    proc = benchmark.pedantic(subprocess.run, args=(argv,),
                              kwargs={"env": env}, rounds=5, iterations=1)
    assert proc.returncode == 0
