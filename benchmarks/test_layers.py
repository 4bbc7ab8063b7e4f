"""Layer microbenchmarks for the flow, stage, composite, Moser and audit hot
paths.

Run from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

The tier-1 suite does not collect this file (``testpaths = ["tests"]``);
the end-to-end benchmark lives in ``bench/``.
"""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reebcut import (
    ComposedHamiltonian,
    ConjugatorSpec,
    FlowSettings,
    GridFunction2D,
    MoserSettings,
    QuadraticHamiltonian,
    QuotientMapSpec,
    RigidRotationHamiltonian,
    conjugated_stage,
    cosine_defect_hamiltonian,
    gauss_linking_integral,
    linearized_return,
    moser_flow,
    orbit_statistics,
    periodic_point_scan,
    pullback_residual,
    return_map_report,
    self_linking,
)
from reebcut import flows
from reebcut.flows import _flow_batch, _run_jobs
from reebcut.geometry import TWO_PI, polar_grid
from reebcut.invariants import (_project_from_farthest_pole,
                                binding_pushoff_curves)
from reebcut.moser import (MoserMap, poincare_primitive, primitive_residual,
                           zero_integral_fixture)
from reebcut.pseudorotations import (_FLOW_BLOCK, ConjugatedRotationHamiltonian,
                                     DiscDiffeo, _stage_diagnostics)
from reebcut.reports import _moser_densities

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


def test_quintic_field_point_grad(benchmark, small_stage):
    # both first partials of the stage's W-field at one point given as two
    # floats: the one-point velocity's spline work, two FITPACK evaluations
    field = small_stage.hamiltonian.w_field
    field.point_grad(0.3, 0.2)  # derive the partials before timing
    gx, gy = benchmark(field.point_grad, 0.3, 0.2)
    assert np.isfinite(gx) and np.isfinite(gy)


def test_stage_diagnostics(benchmark, small_stage):
    # one coarse stage's audits as stage_sequence runs them: contact audit,
    # extension test, area audit and the periodic scan at q = 3, at step
    # 2pi/600
    diagnostics = benchmark.pedantic(
        _stage_diagnostics, args=(small_stage, 2, FlowSettings(step=TWO_PI / 600)),
        rounds=10, iterations=1, warmup_rounds=1,
    )
    assert diagnostics["periodic_periods"] == [3]


def test_orbit_statistics(benchmark, small_stage):
    # single-point return maps: one-point velocity calls dominate
    settings = FlowSettings(step=TWO_PI / 400)
    stats = benchmark.pedantic(
        orbit_statistics, args=(small_stage.hamiltonian, np.array([0.5, 0.0])),
        kwargs={"iterations": 16, "settings": settings}, rounds=3, iterations=1,
    )
    assert stats.completed == 16 and not stats.aborted


# at 128 the support holds one flow block and flows in-process; at 512, the
# CLI default, it holds seven and splits over the CPUs of the affinity set.
# The traced peak is the calling process's alone.
@pytest.mark.parametrize("grid_n", [128, 512])
def test_wfield_build(benchmark, small_stage, grid_n):
    args = (2, 1, 3, small_stage.conjugator)
    H = benchmark.pedantic(ConjugatedRotationHamiltonian, args=args,
                           kwargs={"grid_n": grid_n}, rounds=3, iterations=1)
    _record_traced_peak(benchmark, functools.partial(
        ConjugatedRotationHamiltonian, grid_n=grid_n), *args)
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


def test_flow_batch(benchmark, small_stage, monkeypatch):
    # the batch flow of 40,000 seeded points of the support annulus, with
    # the step count of the W-field build, in two shares; both run in this
    # process (as in a forked worker, whose job lists run in-process), so
    # the traced peak holds the two shares and their one output array
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(flows, "_IN_WORKER", True)
    gen = small_stage.conjugator.generator
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(gen.t0, gen.t1, 40_000))
    theta = rng.uniform(0.0, TWO_PI, r.size)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    args = (gen.velocity, pts, -1.0 / 150, 150, _FLOW_BLOCK, None)
    out, _ = benchmark.pedantic(_flow_batch, args=args, rounds=3,
                                iterations=1)
    _record_traced_peak(benchmark, _flow_batch, *args)
    assert out.shape == pts.shape and np.all(np.isfinite(out))


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


def _return_map_draw():
    # the return-map scenario's 2000 points, drawn as it draws them at the
    # default seed 0
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(0.05, 0.9, 2000))
    theta = rng.uniform(0.0, TWO_PI, r.size)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


@pytest.mark.parametrize("field", ["rigid", "cosine-defect"])
def test_linearized_return(benchmark, field):
    # the return-map scenario's variational flow: its 2000 seeded points at
    # step 2pi/2000.  The rigid H(2, 1, 3) is linear, so one J serves the
    # batch; the cosine defect is not, and carries a J per point.  Its d is
    # small: at the cut-check's d = 0.5 the draw leaves the disc, the field
    # growing like 1/r at the origin
    pts = _return_map_draw()
    H = {"rigid": RigidRotationHamiltonian(2, 1, 3),
         "cosine-defect": cosine_defect_hamiltonian(3, 0.4, 0.05)}[field]
    jac = benchmark.pedantic(
        linearized_return, args=(H, pts),
        kwargs={"settings": FlowSettings(step=TWO_PI / 2000)},
        rounds=3, iterations=1,
    )
    assert jac.shape == (2000, 2, 2) and np.all(np.isfinite(jac))
    if field == "rigid":
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        assert np.max(np.abs(det - 1.0)) <= 1e-9


def test_return_map_report(benchmark):
    # the return-map scenario's audit as the README config runs it: rigid
    # H(2, 1, 3), its 2000 seeded points and the rotation radii (0.3, 0.6)
    # at step 2pi/2000; the radii flow in the points' batch, and the plot
    # traces of its first four points are recorded from it
    rep = benchmark.pedantic(
        return_map_report, args=(RigidRotationHamiltonian(2, 1, 3),
                                 _return_map_draw()),
        kwargs={"settings": FlowSettings(step=TWO_PI / 2000),
                "rotation_radii": (0.3, 0.6)},
        rounds=5, iterations=1,
    )
    assert rep.max_area_defect <= 1e-9 and len(rep.rotation_by_radius) == 2


@pytest.mark.parametrize("n_points", [2, 8, 24])
def test_stage_linearized_return(benchmark, small_stage, n_points):
    # the variational flow of a small batch, as a stage's area audit runs
    # it: seeded annulus points at the stage sequence's step 2pi/600, where
    # per-call overhead weighs against the batched product
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
    psi = moser_flow(*_moser_densities(n, 0.2), settings=MoserSettings(steps=1))
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    v = benchmark(psi._field, 0.5, nodes)
    assert v.shape == nodes.shape and np.all(np.isfinite(v))


def test_moser_map(benchmark):
    # the whole Moser map of the README moser config at 48 steps: its
    # 16384 nodes flow in one share per CPU of the affinity set (at most
    # one per 4096 nodes), each share in its own forked worker but the first
    w0, w1 = _moser_densities(128, 0.2)
    sigma = poincare_primitive(GridFunction2D(w1.values - w0.values))
    psi = benchmark.pedantic(MoserMap, args=(sigma, w0, w1, MoserSettings(48)),
                             rounds=3, iterations=1)
    assert np.max(np.abs(psi.displacement())) > 1e-3


def _poincare_lemma(n):
    eta = zero_integral_fixture(1, n)
    return primitive_residual(eta, poincare_primitive(eta))


# one solve of the poincare-lemma scenario (fixture 1, its primitive and the
# FD6 residual): 256 is the README config's grid, 512 its doubled grid
@pytest.mark.parametrize("n", [256, 512])
def test_poincare_lemma(benchmark, n):
    res = benchmark.pedantic(_poincare_lemma, args=(n,), rounds=5,
                             iterations=1)
    _record_traced_peak(benchmark, _poincare_lemma, n)
    assert res <= 1e-6


def _record_traced_peak(benchmark, call, *args):
    # one more call under tracemalloc: its peak of traced allocations, MiB
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mib"] = round(peak / 2**20, 2)


# the README ellipsoid: a0 = sqrt(2), h = 2
_ELLIPSOID = (QuotientMapSpec("ellipsoid", h=2, a0=np.sqrt(2.0)),
              QuadraticHamiltonian(np.sqrt(2.0), 2.0 - np.sqrt(2.0)))


# the self-linking audit's all-pairs kernel on the binding and its push-off
# in R^3: 512 samples is the README config, 2048 half the schema's ceiling
@pytest.mark.parametrize("n", [512, 2048])
def test_gauss_linking_integral(benchmark, n):
    p1, p2 = _project_from_farthest_pole(
        *binding_pushoff_curves(*_ELLIPSOID, 0.02, n))
    value = benchmark.pedantic(gauss_linking_integral, args=(p1, p2),
                               rounds=5, iterations=1)
    _record_traced_peak(benchmark, gauss_linking_integral, p1, p2)
    assert abs(value + 1.0) <= 0.05


# the self-linking audit whole: push-off, pole choice, curve distance and
# Gauss integral; 512 samples is the README config, 4096 the schema's ceiling
@pytest.mark.parametrize("n", [512, 4096])
def test_self_linking(benchmark, n):
    result = benchmark.pedantic(self_linking, args=_ELLIPSOID,
                                kwargs={"push_eps": 0.02, "n_samples": n},
                                rounds=5 if n <= 512 else 3, iterations=1)
    _record_traced_peak(benchmark, self_linking, *_ELLIPSOID, 0.02, n)
    assert result.value == -1


# the ellipsoid scenario's pullback audit: 32^3 is the README config's
# lattice, 64^3 the schema's ceiling
@pytest.mark.parametrize("n", [32, 64])
def test_pullback_residual(benchmark, n):
    value = benchmark.pedantic(pullback_residual, args=(*_ELLIPSOID, n, n, n),
                               rounds=5, iterations=1)
    _record_traced_peak(benchmark, pullback_residual, *_ELLIPSOID, n, n, n)
    assert value <= 1e-6


def test_cli_import(benchmark):
    # spawn to ``import reebcut.cli`` in a fresh interpreter: the start-up
    # cost every CLI invocation pays before its scenario runs
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", "import reebcut.cli"]
    proc = benchmark.pedantic(subprocess.run, args=(argv,),
                              kwargs={"env": env}, rounds=5, iterations=1)
    assert proc.returncode == 0
