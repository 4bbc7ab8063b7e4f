import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from reebcut import (
    BindingChart,
    CanonicalRecoverySettings,
    ComposedHamiltonian,
    ConjugatorSchedule,
    ConjugatorSpec,
    FlowSettings,
    HamiltonianIsotopyPath,
    IntegrationError,
    PreconditionError,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    boundary_jet_check,
    build_conjugator,
    canonical_hamiltonian,
    conjugated_stage,
    continued_fraction_convergents,
    contact_margin,
    extension_test,
    golden_mean_inverse,
    orbit_statistics,
    return_map,
    stage_sequence,
)
from reebcut import flows, moser, pseudorotations
from reebcut.binding import ExtensionSettings
from reebcut.hamiltonians import QuinticField
from reebcut.pseudorotations import fd_weights
from reebcut.geometry import TWO_PI, polar_grid

from conftest import (assert_no_child_left, compact_disc_hamiltonian,
                      count_forks, random_disc_points)


def rotation_matrix(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# convergents and the rigid family
# ---------------------------------------------------------------------------


def test_golden_mean_convergents():
    a = golden_mean_inverse()
    assert continued_fraction_convergents(a, 5) == [
        (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)
    ]


def test_convergents_reject_rational():
    with pytest.raises(PreconditionError):
        continued_fraction_convergents(0.5, 3)
    with pytest.raises(PreconditionError):
        continued_fraction_convergents(7 / 64 + 1e-12, 3)


def test_rigid_rotation_values():
    H = RigidRotationHamiltonian(2, 1, 3)
    assert abs(H.value(0.0, np.array([1.0, 0.0])) - 2.0) <= 1e-15
    assert abs(H.value(0.0, np.array([0.0, 0.0])) - (2 + 1 / 3)) <= 1e-15


def test_rigid_rotation_return_map():
    H = RigidRotationHamiltonian(2, 1, 3)
    img = return_map(H, np.array([0.4, 0.0]))
    expected = 0.4 * np.array([np.cos(TWO_PI / 3), np.sin(TWO_PI / 3)])
    assert np.max(np.abs(img - expected)) <= 1e-10


def test_rigid_rotation_margin(rng):
    H = RigidRotationHamiltonian(2, 1, 3)
    pts = random_disc_points(rng, 200, r_max=1.0, r_min=0.0)
    margins = contact_margin(H, 0.0, pts)
    # H - r dH/dr / 2 = h + p/q identically
    assert np.max(np.abs(margins - (2 + 1 / 3))) <= 1e-12
    assert np.min(margins) > 2 - 1 / 3


def test_rigid_rotation_rejects_bad_slope():
    with pytest.raises(PreconditionError):
        RigidRotationHamiltonian(1, -7, 5)


# ---------------------------------------------------------------------------
# conjugators
# ---------------------------------------------------------------------------


def test_conjugator_zero_amplitude_is_identity(rng):
    spec = ConjugatorSpec(amplitude=0.0)
    phi = build_conjugator(spec, steps=50)
    pts = random_disc_points(rng, 30)
    assert np.max(np.abs(phi(pts) - pts)) == 0.0


def test_conjugator_round_trip_and_area(stage_2_1_3, rng):
    phi = stage_2_1_3.conjugator
    pts = random_disc_points(rng, 100, r_max=0.95)
    assert np.max(np.abs(phi.inverse(phi(pts)) - pts)) <= 1e-8
    jac = phi.jacobian(polar_grid(8, 12, r_max=0.95))
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-8


def test_conjugator_identity_near_boundary_and_center():
    spec = ConjugatorSpec(amplitude=0.2, delta=0.2, r_inner=0.2)
    phi = build_conjugator(spec, steps=100)
    theta = np.linspace(0, TWO_PI, 16, endpoint=False)
    for r in (0.05, 0.15, 0.82, 0.95):
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert np.max(np.abs(phi(ring) - ring)) == 0.0


def test_conjugator_audit_runs():
    phi = build_conjugator(ConjugatorSpec(amplitude=0.1), audit=True)
    assert phi.audit["area_defect"] <= 1e-8
    assert phi.audit["round_trip"] <= 1e-8


def test_mode_one_conjugator_audit_is_finite():
    # k (k - 1) z^(k - 2) of the generator's Hessian was 0 * inf at the
    # origin for mode 1, and the audit passed on the NaN area defect
    phi = build_conjugator(ConjugatorSpec(mode=1), audit=True)
    assert np.isfinite(phi.generator.hessian(0.0, np.zeros(2))).all()
    assert 0.0 <= phi.audit["area_defect"] <= 1e-8
    assert 0.0 <= phi.audit["round_trip"] <= 1e-8


def test_conjugator_audit_fails_on_nan_jacobian(monkeypatch):
    def nan_jacobian(self, pts):
        return np.full(np.shape(pts)[:-1] + (2, 2), np.nan)

    monkeypatch.setattr(pseudorotations.DiscDiffeo, "jacobian", nan_jacobian)
    with pytest.raises(IntegrationError, match="area defect nan"):
        build_conjugator(ConjugatorSpec(), audit=True)


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_conjugator_blocked_flow_is_exact(rng, monkeypatch):
    phi = build_conjugator(ConjugatorSpec(amplitude=0.2, mode=3, phase=0.4),
                           steps=20)
    # 1001 points: not a multiple of the block size
    pts = rng.uniform(-0.9, 0.9, (13, 77, 2))
    oracles = (phi, phi.inverse, phi.jacobian, phi.inverse_jacobian)
    single = [f(pts) for f in oracles]
    monkeypatch.setattr(pseudorotations, "_FLOW_BLOCK", 97)
    for f, ref in zip(oracles, single):
        assert bitwise_equal(f(pts), ref)
    point = np.array([0.5, 0.1])
    assert bitwise_equal(phi(point), phi(point[None])[0])


def _einsum_flow_with_jacobian(gen, pts, h, steps):
    """The whole-batch RK4 loop with the einsum Jacobian step that
    DiscDiffeo used before its flow ran on flows' RK4 steps."""

    def f(q):
        return gen.velocity(0.0, q)

    def df(q, j):
        return np.einsum("...ik,...kj->...ij", gen.velocity_jacobian(0.0, q), j)

    y = pts
    jac = np.broadcast_to(np.eye(2), y.shape[:-1] + (2, 2)).copy()
    for _ in range(steps):
        k1, l1 = f(y), df(y, jac)
        k2, l2 = f(y + 0.5 * h * k1), df(y + 0.5 * h * k1, jac + 0.5 * h * l1)
        k3, l3 = f(y + 0.5 * h * k2), df(y + 0.5 * h * k2, jac + 0.5 * h * l2)
        k4, l4 = f(y + h * k3), df(y + h * k3, jac + h * l3)
        y, jac = (y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4),
                  jac + (h / 6.0) * (l1 + 2 * l2 + 2 * l3 + l4))
    return y, jac


def test_conjugator_jacobian_matches_einsum_step(rng, monkeypatch):
    steps = 20
    phi = build_conjugator(ConjugatorSpec(amplitude=0.2, mode=3, phase=0.4),
                           steps=steps)
    # 301 points with the origin and axis points (exact zeros) among them
    pts = np.vstack([[[0.0, 0.0], [0.6, 0.0], [0.0, -0.5]],
                     rng.uniform(-0.9, 0.9, (298, 2))])
    monkeypatch.setattr(pseudorotations, "_FLOW_BLOCK", 64)
    for sign, flow, jacobian in ((1.0, phi, phi.jacobian),
                                 (-1.0, phi.inverse, phi.inverse_jacobian)):
        end, jac = _einsum_flow_with_jacobian(phi.generator, pts,
                                              sign * 1.0 / steps, steps)
        assert bitwise_equal(jacobian(pts), jac)
        assert bitwise_equal(flow(pts), end)


def _old_bump(gen, t, order):
    inside = (t > gen.t0) & (t < gen.t1)
    a = np.where(inside, t - gen.t0, 0.0)
    b = np.where(inside, gen.t1 - t, 0.0)
    if order == 0:
        return gen._norm * (a * b) ** 4
    return gen._norm * 4.0 * (a * b) ** 3 * (b - a)


def _old_angular(gen, xy, d):
    z = xy[..., 0] + 1j * xy[..., 1]
    return z ** (gen.spec.mode - d) * np.exp(-1j * gen.spec.phase)


def _packed_hessian(hxx, hxy, hyy):
    hess = np.empty(np.shape(hxx) + (2, 2))
    hess[..., 0, 0] = hxx
    hess[..., 0, 1] = hxy
    hess[..., 1, 0] = hxy
    hess[..., 1, 1] = hyy
    return hess


def _packed_dx(hess):
    """DX the way the base class built it from a packed (..., 2, 2)
    Hessian before the component hooks: four multiplies into a
    components-first buffer, returned as its (..., 2, 2) view."""
    out = np.empty((2, 2) + hess.shape[:-2])
    np.multiply(0.5, hess[..., 1, 0], out=out[0, 0, ...])
    np.multiply(0.5, hess[..., 1, 1], out=out[0, 1, ...])
    np.multiply(-0.5, hess[..., 0, 0], out=out[1, 0, ...])
    np.multiply(-0.5, hess[..., 0, 1], out=out[1, 1, ...])
    return out.transpose(tuple(range(2, out.ndim)) + (0, 1))


FUSED_SPECS = [
    ConjugatorSpec(),
    ConjugatorSpec(amplitude=0.12, delta=0.2, mode=2, r_inner=0.2),
    ConjugatorSpec(amplitude=0.3, delta=0.35, mode=1, r_inner=0.1, phase=1.1),
    ConjugatorSpec(amplitude=0.05, delta=0.4, mode=5, phase=-0.7),
    ConjugatorSpec(mode=2, phase=0.3),
]


@pytest.mark.parametrize("spec", FUSED_SPECS)
def test_conjugator_fused_velocity_is_exact(spec, rng):
    gen = spec.generator()
    r0, r1 = spec.r_inner, 1.0 - spec.delta
    special = np.array([
        [0.0, 0.0], [r0, 0.0], [0.0, -r0], [r1, 0.0], [0.0, r1], [-r1, 0.0],
        [0.5, 0.0], [0.0, -0.5], [-0.3, 0.0], [0.0, 0.95],
        # signed zeros, in the support and on its edges
        [-0.0, 0.5], [-0.0, -0.5], [0.5, -0.0], [-0.45, -0.0],
        [-0.0, r0], [r1, -0.0], [-0.0, 0.95],
    ])
    pts = np.concatenate([special, rng.uniform(-1.0, 1.0, (400, 2))])
    # the old grad: the _bump/_angular composition
    x, y = pts[:, 0], pts[:, 1]
    t = x * x + y * y
    w, wp = _old_bump(gen, t, 0), _old_bump(gen, t, 1)
    p = np.real(_old_angular(gen, pts, 0))
    zk1 = spec.mode * _old_angular(gen, pts, 1)
    gx = spec.amplitude * (2.0 * x * wp * p + w * np.real(zk1))
    gy = spec.amplitude * (2.0 * y * wp * p + w * -np.imag(zk1))
    grad = np.stack([gx, gy], axis=-1)
    assert bitwise_equal(gen.grad(0.0, pts), grad)
    velocity = np.stack([0.5 * grad[..., 1], -0.5 * grad[..., 0]], axis=-1)
    assert bitwise_equal(gen.velocity(0.0, pts), velocity)
    # the old Hessian, packed from the second jet, and DX from its entries
    (w, wp, wpp), (p, zk1, zk2) = gen._jet(pts, 2)
    px, py = np.real(zk1), -np.imag(zk1)
    pxx, pxy, pyy = np.real(zk2), -np.imag(zk2), -np.real(zk2)
    a = spec.amplitude
    hess = _packed_hessian(
        a * (4 * x * x * wpp * p + 2 * wp * p + 4 * x * wp * px + w * pxx),
        a * (4 * x * y * wpp * p + 2 * x * wp * py + 2 * y * wp * px + w * pxy),
        a * (4 * y * y * wpp * p + 2 * wp * p + 4 * y * wp * py + w * pyy))
    dx = _packed_dx(hess)
    assert bitwise_equal(gen.hessian(0.0, pts), hess)
    assert bitwise_equal(gen.velocity_jacobian(0.0, pts), dx)
    # a strided (non-contiguous) batch and single points give the same bits
    strided = np.repeat(pts, 3, axis=1)[::2, ::3]
    assert not strided.flags.c_contiguous
    assert bitwise_equal(gen.velocity(0.0, strided), velocity[::2])
    assert bitwise_equal(gen.grad(0.0, strided), grad[::2])
    assert bitwise_equal(gen.hessian(0.0, strided), hess[::2])
    assert bitwise_equal(gen.velocity_jacobian(0.0, strided), dx[::2])
    # every point: on 0-d arrays numpy's complex scalar arithmetic differed
    # in the last bit from the array loops on about one point in six
    for i in range(len(pts)):
        assert bitwise_equal(gen.velocity(0.0, pts[i]), velocity[i])
        assert bitwise_equal(gen.grad(0.0, pts[i]), grad[i])
        assert bitwise_equal(gen.hessian(0.0, pts[i]), hess[i])
        assert bitwise_equal(gen.velocity_jacobian(0.0, pts[i]), dx[i])
    # at the origin with negative zeros only the sign of the zero gradient
    # may differ from the composition (a zero base of z ** 1 comes back +0)
    origin = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])
    assert np.all(gen.velocity(0.0, origin) == 0.0)


@pytest.mark.parametrize("spec", FUSED_SPECS)
def test_conjugator_single_point_is_one_point_batch(spec):
    # every oracle reads one jet, and a (2,) point runs it as a one-point
    # batch: numpy's complex scalar arithmetic on 0-d arrays used to move
    # the last bit of value and hessian
    gen = spec.generator()
    r0, r1 = spec.r_inner, 1.0 - spec.delta
    special = np.array([[0.0, 0.0], [-0.0, -0.0], [r0, 0.0], [0.0, -r1],
                        [-0.0, 0.5], [0.5, -0.0], [-0.45, -0.0]])
    pts = np.concatenate(
        [special, np.random.default_rng(5).uniform(-1.0, 1.0, (300, 2))])
    for name in ("value", "grad", "velocity", "hessian"):
        oracle = getattr(gen, name)
        for p in pts:
            assert bitwise_equal(np.asarray(oracle(0.0, p)),
                                 oracle(0.0, p[None])[0]), (name, p)


def test_w_field_support_mask_is_exact():
    spec = ConjugatorSpec(amplitude=0.12, delta=0.2, mode=2, r_inner=0.2)
    phi = build_conjugator(spec)
    grid_n, pad, steps = 128, 0.05, 150
    H = pseudorotations.ConjugatedRotationHamiltonian(2, 1, 3, phi,
                                                      grid_n=grid_n)
    # the old build: flow every grid point of the inner disc
    ax = np.linspace(-1.0 - pad, 1.0 + pad, grid_n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    w = r2.copy()
    inner = r2 < (1.0 - spec.delta + 2.0 * (ax[1] - ax[0])) ** 2
    inv = pseudorotations.DiscDiffeo(phi.generator, steps=steps).inverse(pts[inner])
    w[inner] = inv[:, 0] ** 2 + inv[:, 1] ** 2
    old = RectBivariateSpline(ax, ax, w.reshape(grid_n, grid_n), kx=5, ky=5)
    assert bitwise_equal(H.w_field.tck[2], old.get_coeffs())


@pytest.mark.parametrize("grid_n", [64, 65])
def test_w_field_lattice_is_the_meshgrid_build(grid_n, monkeypatch):
    # the (n, n) lattice flows the support nodes of the meshgrid build, in
    # its order, and fits the same W bit for bit
    spec = ConjugatorSpec(amplitude=0.12, delta=0.2, mode=2, r_inner=0.2)
    phi = build_conjugator(spec)
    flowed = []
    real_inverse = pseudorotations.DiscDiffeo.inverse

    def inverse(self, pts):
        flowed.append(np.array(pts))
        return real_inverse(self, pts)

    monkeypatch.setattr(pseudorotations.DiscDiffeo, "inverse", inverse)
    H = pseudorotations.ConjugatedRotationHamiltonian(2, 1, 3, phi,
                                                      grid_n=grid_n)
    monkeypatch.setattr(pseudorotations.DiscDiffeo, "inverse", real_inverse)
    # the meshgrid build: every node stacked, the support nodes flowed
    gen = phi.generator
    ax = np.linspace(-1.0 - pseudorotations._W_PAD, 1.0 + pseudorotations._W_PAD,
                     grid_n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    w = r2.copy()
    inner = (gen.t0 < r2) & (r2 < gen.t1)
    inv = pseudorotations.DiscDiffeo(
        gen, steps=pseudorotations._W_FLOW_STEPS).inverse(pts[inner])
    w[inner] = inv[:, 0] ** 2 + inv[:, 1] ** 2
    old = QuinticField(ax, ax, w.reshape(grid_n, grid_n))
    assert len(flowed) == 1 and bitwise_equal(flowed[0], pts[inner])
    for new_part, old_part in zip(H.w_field.tck, old.tck):
        assert bitwise_equal(new_part, old_part)


def _index_array_w_field(gen, grid_n):
    """W on the (n, n) lattice, its support nodes found as np.nonzero index
    arrays, gathered from the axis and stacked into points."""
    lim = 1.0 + pseudorotations._W_PAD
    ax = np.linspace(-lim, lim, grid_n)
    sq = ax ** 2
    w = sq[:, None] + sq[None, :]
    i, j = np.nonzero((gen.t0 < w) & (w < gen.t1))
    inv = pseudorotations.DiscDiffeo(
        gen, steps=pseudorotations._W_FLOW_STEPS).inverse(
            np.stack([ax[i], ax[j]], axis=-1))
    w[i, j] = inv[:, 0] ** 2 + inv[:, 1] ** 2
    return QuinticField(ax, ax, w)


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("grid_n", [64, 96])
def test_w_field_mask_build_is_the_index_array_build(grid_n, mode):
    # boolean indexing takes the support nodes in row-major order, that of
    # np.nonzero, so the same points flow and the same W is fitted
    phi = build_conjugator(ConjugatorSpec(amplitude=0.12, delta=0.2,
                                          mode=mode, r_inner=0.2))
    H = pseudorotations.ConjugatedRotationHamiltonian(2, 1, 3, phi,
                                                      grid_n=grid_n)
    old = _index_array_w_field(phi.generator, grid_n)
    for new_part, old_part in zip(H.w_field.tck, old.tck):
        assert bitwise_equal(new_part, old_part)


def test_w_field_build_memory_is_bounded(monkeypatch):
    # the 512^2 build of the default schedule's stage 2, whose support
    # (delta = 0.1) is the widest of a two-stage sequence, on one CPU, so
    # all of it is traced in this process: the points are filled from the
    # support mask, without index arrays (the index-array build traced
    # 11.85 MiB)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    phi = build_conjugator(ConjugatorSchedule().spec(2))
    tracemalloc.start()
    try:
        pseudorotations.ConjugatedRotationHamiltonian(2, 1, 3, phi,
                                                      grid_n=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2**20


def test_forked_flow_is_bitwise_the_one_process_flow(monkeypatch):
    # the affinity set decides the share count: one CPU flows in-process,
    # two fork one worker, and every result agrees bit for bit
    phi = build_conjugator(ConjugatorSpec(amplitude=0.2, mode=3, phase=0.4),
                           steps=20)
    pts = np.random.default_rng(14).uniform(
        -0.9, 0.9, (3 * pseudorotations._FLOW_BLOCK - 5, 2))
    w_phi = build_conjugator(ConjugatorSpec())
    forks = count_forks(monkeypatch)
    results = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        H = pseudorotations.ConjugatedRotationHamiltonian(2, 1, 3, w_phi,
                                                          grid_n=256)
        results[len(cpus)] = (phi.inverse(pts), phi.jacobian(pts),
                              H.w_field.tck[2])
        assert_no_child_left()
        # one fork for each multi-block flow: the inverse, the Jacobian and
        # the W-field's 28,616 support points (two blocks)
        assert len(forks) == (0 if len(cpus) == 1 else 3)
    for one, two in zip(results[1], results[2]):
        assert bitwise_equal(one, two)


class _FailingGenerator(pseudorotations._ConjugatorGenerator):
    """The conjugator field, raising (or warning) on any batch that holds a
    point with x >= 0.9: outside its support, where no point moves."""

    def __init__(self, warn):
        super().__init__(ConjugatorSpec())
        self.warn = warn

    def velocity(self, s, xy):
        if np.any(xy[..., 0] >= 0.9):
            if not self.warn:
                raise PreconditionError("velocity refused x >= 0.9")
            warnings.warn("velocity saw x >= 0.9", RuntimeWarning)
        return super().velocity(s, xy)


def _two_share_batch(monkeypatch, bad_share):
    """64 points in two shares of four 8-point blocks, those of share
    ``bad_share`` at x >= 0.9 and the others, which stay at x < 0.9, inside
    r < 0.6; two CPUs in the affinity set."""
    monkeypatch.setattr(pseudorotations, "_FLOW_BLOCK", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pts = np.random.default_rng(14).uniform(-0.42, 0.42, (64, 2))
    pts[32 * bad_share:32 * bad_share + 32] = [0.95, 0.0]
    return pts


@pytest.mark.parametrize("bad_share", [1, 0], ids=["worker", "caller"])
def test_forked_flow_raises_the_serial_exception(monkeypatch, bad_share):
    # a worker that raises hands its share back, and the caller's flow of
    # it raises; a caller that raises kills its worker first
    pts = _two_share_batch(monkeypatch, bad_share)
    phi = pseudorotations.DiscDiffeo(_FailingGenerator(warn=False), steps=2)
    forks = count_forks(monkeypatch)
    with pytest.raises(PreconditionError, match="x >= 0.9"):
        phi.inverse(pts)
    assert len(forks) == 1
    assert_no_child_left()


def test_forked_flow_warns_as_the_serial_flow(monkeypatch):
    # a worker that warns hands its share back: the caller flows it again
    # and the warning surfaces here, with the one-process result
    pts = _two_share_batch(monkeypatch, 1)
    phi = pseudorotations.DiscDiffeo(_FailingGenerator(warn=True), steps=2)
    with pytest.warns(RuntimeWarning, match="x >= 0.9"):
        forked = phi.inverse(pts)
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.warns(RuntimeWarning, match="x >= 0.9"):
        serial = phi.inverse(pts)
    assert bitwise_equal(forked, serial)


def _small_sequence(orbit_iterations=0):
    """Two coarse stages (convergents 1/1 and 1/2): their audit jobs, and
    the orbit job if asked, are the jobs of one _run_jobs call."""
    return stage_sequence(golden_mean_inverse(), 2, h=2,
                          settings=FlowSettings(step=TWO_PI / 200),
                          w_grid=128, orbit_iterations=orbit_iterations)


def test_forked_stage_audits_are_bitwise_the_one_process_audits(monkeypatch):
    # one CPU audits in-process; two fork a worker for stage 2's audits and
    # one for the orbit, and diagnostics, f0 values, difference norms and
    # orbit agree bit for bit (repr round-trips every float)
    forks = count_forks(monkeypatch)
    results = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        seq = _small_sequence(orbit_iterations=6)
        assert_no_child_left()
        assert len(forks) == (0 if len(cpus) == 1 else 2)
        orbit = seq.orbit
        assert orbit.completed == 6 and not orbit.aborted
        results[len(cpus)] = (repr(seq.to_dict()), orbit.radii, orbit.angles,
                              orbit.birkhoff_r2, orbit.birkhoff_cos)
    one, two = results[1], results[2]
    assert one[0] == two[0]
    for a, b in zip(one[1:], two[1:]):
        assert bitwise_equal(a, b)


def _failing_contact_audit(monkeypatch, bad_q, warn):
    """contact_audit raising (or warning) on the stage of denominator
    ``bad_q``: stage 1 (q = 1) is the caller's job, stage 2 a worker's."""
    real = pseudorotations.contact_audit

    def contact_audit(ham, grid):
        if ham.q == bad_q:
            if not warn:
                raise PreconditionError(f"contact audit refused q = {bad_q}")
            warnings.warn(f"contact audit saw q = {bad_q}", RuntimeWarning)
        return real(ham, grid)

    monkeypatch.setattr(pseudorotations, "contact_audit", contact_audit)


@pytest.mark.parametrize("bad_q", [2, 1], ids=["worker", "caller"])
def test_forked_audit_raises_the_serial_exception(monkeypatch, bad_q):
    # a worker that raises hands its job back, and the caller's run of it
    # raises; a caller that raises kills its worker first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _failing_contact_audit(monkeypatch, bad_q, warn=False)
    forks = count_forks(monkeypatch)
    with pytest.raises(PreconditionError, match=f"refused q = {bad_q}"):
        _small_sequence()
    assert len(forks) == 1
    assert_no_child_left()


def test_forked_audit_warns_as_the_serial_audit(monkeypatch):
    # a worker that warns hands its job back: the caller audits the stage
    # again and the warning surfaces here, with the one-process result
    _failing_contact_audit(monkeypatch, 2, warn=True)
    diagnostics = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        with pytest.warns(RuntimeWarning, match="saw q = 2"):
            seq = _small_sequence()
        assert_no_child_left()
        diagnostics[len(cpus)] = repr([st.diagnostics for st in seq.stages])
    assert diagnostics[1] == diagnostics[2]


def test_worker_that_dies_hands_its_job_back(monkeypatch):
    # a worker that exits without a result: the caller runs its job again
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = os.getpid()

    def dies_in_a_worker():
        if os.getpid() != caller:
            os._exit(3)
        return "ran in the caller"

    forks = count_forks(monkeypatch)
    assert flows._run_jobs([lambda: 1, dies_in_a_worker]) == [
        1, "ran in the caller"]
    assert len(forks) == 1
    assert_no_child_left()


def test_jobs_nested_in_a_worker_run_in_it(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def nested():
        return os.getpid(), flows._run_jobs([os.getpid, os.getpid])

    here, (worker, inner) = flows._run_jobs([os.getpid, nested])
    assert here == os.getpid() != worker
    assert inner == [worker, worker]
    assert_no_child_left()


# ---------------------------------------------------------------------------
# conjugated stages
# ---------------------------------------------------------------------------


def test_stage_identity_conjugator_is_rigid(rng):
    stage = conjugated_stage(2, 1, 3, ConjugatorSpec(amplitude=0.0), w_grid=256)
    pts = random_disc_points(rng, 20, r_max=0.8)
    rigid = RigidRotationHamiltonian(2, 1, 3)
    assert np.max(np.abs(stage.hamiltonian.value(0.0, pts)
                         - rigid.value(0.0, pts))) <= 1e-9


def test_stage_tail_identity_bitwise(stage_2_1_3):
    H = stage_2_1_3.hamiltonian
    rigid = RigidRotationHamiltonian(2, 1, 3)
    theta = np.linspace(0, TWO_PI, 48, endpoint=False)
    for r in (0.8001, 0.87, 0.95, 0.999):
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert bitwise_equal(H.value(0.0, ring), rigid.value(0.0, ring))
    # the first tail point: r^2 equals the switch exactly
    edge = np.sqrt(H._switch2)
    assert edge * edge == H._switch2
    pts = np.array([[edge, 0.0]])
    assert bitwise_equal(H.value(0.0, pts), rigid.value(0.0, pts))


def test_stage_single_point_velocity_is_exact(stage_2_1_3, fast_flow):
    H = stage_2_1_3.hamiltonian
    switch2 = H._switch2
    edge = np.sqrt(switch2)
    assert edge * edge == switch2
    points = [
        [0.0, 0.0], [0.3, 0.2], [-0.45, 0.1], [0.12, -0.61],
        [0.5, 0.0], [0.0, -0.5], [-0.7, 0.0], [0.0, 0.35],
        [edge, 0.0],                          # r^2 exactly on the switch
        [np.nextafter(edge, 0.0), 0.0],       # its neighbour inside
        [0.97 * np.cos(1.1), 0.97 * np.sin(1.1)],
        # signed zeros, inside and on the switch
        [-0.0, -0.0], [-0.0, 0.5], [0.5, -0.0], [edge, -0.0],
    ]
    pts = np.array(points)
    # the old Hessian, -(p/q) times the packed W partials, and DX from its
    # entries
    x, y = pts[:, 0], pts[:, 1]
    tail = x * x + y * y >= switch2
    hess = -H.pq * _packed_hessian(
        np.where(tail, 2.0, H.w_field.ev(2, 0, x, y)),
        np.where(tail, 0.0, H.w_field.ev(1, 1, x, y)),
        np.where(tail, 2.0, H.w_field.ev(0, 2, x, y)))
    dx = _packed_dx(hess)
    assert bitwise_equal(H.hessian(0.0, pts), hess)
    assert bitwise_equal(H.velocity_jacobian(0.0, pts), dx)
    for i, p in enumerate(pts):
        one = H.velocity(0.0, p)
        assert one.shape == (2,)
        assert bitwise_equal(one, H.velocity(0.0, p[None])[0])
        # the float path that (2,) points took before the array path did
        assert bitwise_equal(one, np.array(H.point_velocity(0.0, *p.tolist())))
        assert bitwise_equal(H.hessian(0.0, p), hess[i])
        assert bitwise_equal(H.velocity_jacobian(0.0, p), dx[i])

    p = np.array([0.5, 0.0])
    q = p[None]
    for _ in range(32):
        p = return_map(H, p, fast_flow)
        q = return_map(H, q, fast_flow)
        assert bitwise_equal(p, q[0])


def test_stage_conjugation_invariance(stage_2_1_3, rng, fast_flow):
    H = stage_2_1_3.hamiltonian
    phi = stage_2_1_3.conjugator
    pts = random_disc_points(rng, 200, r_max=0.96)
    flow_img = return_map(H, pts, fast_flow)
    oracle = phi(phi.inverse(pts) @ rotation_matrix(TWO_PI / 3).T)
    assert np.max(np.abs(flow_img - oracle)) <= 1e-6


def test_stage_extension_limit(stage_2_1_3):
    rep = extension_test(stage_2_1_3.hamiltonian, BindingChart(h=2),
                         ExtensionSettings(expected_a=1 / 3))
    assert rep.passed
    assert abs(rep.f0 - 2 * (2 + 1 / 3)) <= 1e-8
    assert np.max(np.abs(rep.f_rhorho_at_zero + 2 * (2 + 1 / 3))) <= 1e-6


def test_stage_rejects_support_violation():
    # a conjugator whose support reaches past the claimed margin
    spec_wide = ConjugatorSpec(amplitude=0.2, delta=0.05)
    phi = build_conjugator(spec_wide, steps=60)
    with pytest.raises(PreconditionError):
        conjugated_stage(2, 1, 3, ConjugatorSpec(amplitude=0.2, delta=0.4),
                         phi=phi, w_grid=128)


# ---------------------------------------------------------------------------
# stage sequences
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_sequence():
    return stage_sequence(
        golden_mean_inverse(), 3, h=2,
        schedule=ConjugatorSchedule(amplitude0=0.1),
        settings=FlowSettings(step=TWO_PI / 500),
        w_grid=384,
    )


def test_sequence_stages_pass_audits(golden_sequence):
    for stage in golden_sequence.stages:
        d = stage.diagnostics
        assert d["contact"]["pass"]
        assert d["extension_pass"]
        assert d["area_defect"] <= 1e-6


def test_sequence_f0_values(golden_sequence):
    a = golden_mean_inverse()
    for f0, expected in zip(golden_sequence.f0_values,
                            golden_sequence.f0_expected):
        assert abs(f0 - expected) <= 1e-8
    gaps = [abs(f0 - 2 * (2 + a)) for f0 in golden_sequence.f0_values]
    assert gaps[-1] < gaps[0]


def test_sequence_periodic_points(golden_sequence):
    for stage in golden_sequence.stages:
        assert stage.q in stage.diagnostics["periodic_periods"]


def test_sequence_difference_norms_decay(golden_sequence):
    c0 = [d[0] for d in golden_sequence.difference_norms]
    assert all(n >= 0 for n in c0)
    ratios = [b / a for a, b in zip(c0[:-1], c0[1:]) if a > 0]
    assert all(r <= 0.75 for r in ratios)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_difference_norms_come_from_the_stage_jobs(cpus, monkeypatch):
    # the norms are those of the stage oracles bit for bit; no audited
    # stage keeps a derived partial in the caller: a stage audited in a
    # worker had none derived here, and a job run here drops its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    seq = stage_sequence(golden_mean_inverse(), 3, h=2,
                         settings=FlowSettings(step=TWO_PI / 200), w_grid=64)
    assert_no_child_left()
    for stage in seq.stages:
        assert set(stage.hamiltonian.w_field._partials) == {(0, 0)}
    pts = polar_grid(10, 16, r_max=0.95)
    expected = [{k: float(np.max(np.abs(getattr(a.hamiltonian, oracle)(0.0, pts)
                                        - getattr(b.hamiltonian, oracle)(0.0, pts))))
                 for k, oracle in enumerate(("value", "grad", "hessian"))}
                for a, b in zip(seq.stages[:-1], seq.stages[1:])]
    assert repr(seq.difference_norms) == repr(expected)


def test_orbit_job_runs_in_the_caller(monkeypatch):
    # the orbit job comes first, so the caller runs it on any CPU count and
    # drops the partials it derived; the stage results come back in stage
    # order, bitwise the same on one CPU and on two
    real = pseudorotations.orbit_statistics
    ran_in = []

    def orbit_statistics(*args, **kwargs):
        ran_in.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(pseudorotations, "orbit_statistics", orbit_statistics)
    results = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        ran_in.clear()
        seq = stage_sequence(golden_mean_inverse(), 3, h=2,
                             settings=FlowSettings(step=TWO_PI / 200),
                             w_grid=64, orbit_iterations=4)
        assert_no_child_left()
        assert ran_in == [os.getpid()]
        for stage in seq.stages:
            assert set(stage.hamiltonian.w_field._partials) == {(0, 0)}
            # each stage's own diagnostics: stage order is kept
            f0_expected = 2.0 * (2 + stage.p / stage.q)
            assert stage.diagnostics["f0_expected"] == f0_expected
        direct = real(seq.stages[-1].hamiltonian, pseudorotations._ORBIT_START,
                      iterations=4,
                      settings=FlowSettings(step=pseudorotations._ORBIT_STEP))
        assert repr(seq.orbit.to_dict()) == repr(direct.to_dict())
        for field in ("radii", "angles", "birkhoff_r2", "birkhoff_cos"):
            assert bitwise_equal(getattr(seq.orbit, field),
                                 getattr(direct, field))
        results[len(cpus)] = repr(([st.diagnostics for st in seq.stages],
                                   seq.difference_norms))
    assert results[1] == results[2]


def test_stage_diagnostics_need_no_refined_scan(fast_flow):
    # the diagnostics read the periods and the number of the scan's hits
    stage = conjugated_stage(2, 1, 3, w_grid=64)
    diagnostics = pseudorotations._stage_diagnostics(stage, 2, fast_flow)
    assert diagnostics["periodic_periods"] == [3]
    assert diagnostics["periodic_found"] > 0


def test_sequence_rejects_rational_target():
    with pytest.raises(PreconditionError):
        stage_sequence(0.25, 3, h=2)


# ---------------------------------------------------------------------------
# boundary jets
# ---------------------------------------------------------------------------


def test_fd_weights_reproduce_derivatives():
    nodes = np.array([0.0, -0.1, -0.2, -0.3, -0.4])
    w = fd_weights(nodes, 0.0, 2)
    # exact on cubics: f = x^3 + 2x^2: f'' (0) = 4
    vals = nodes**3 + 2 * nodes**2
    assert abs(w @ vals - 4.0) <= 1e-10


def test_boundary_jets_exact_tail():
    H = RigidRotationHamiltonian(2, 1, 3)
    defects = boundary_jet_check(H, a=1 / 3, order=4)
    assert all(d <= 1e-8 for d in defects)


def test_boundary_jets_quadratic_model():
    a0 = 2.6
    H = QuadraticHamiltonian(a0, 3 - a0)
    defects = boundary_jet_check(H, a=a0 - 3, order=3)
    assert all(d <= 1e-8 for d in defects)


def test_boundary_jets_detect_mismatched_limit():
    # checking a stage against the limit a instead of its own p/q shows a
    # second-order defect ~ 2 |a - p/q|
    H = RigidRotationHamiltonian(2, 2, 3)
    a = golden_mean_inverse()
    defects = boundary_jet_check(H, a=a, order=2)
    gap = abs(2 / 3 - a)
    assert abs(defects[2] - 2 * gap) <= 1e-6
    assert abs(defects[1] - 2 * gap) <= 1e-6


# ---------------------------------------------------------------------------
# orbit statistics
# ---------------------------------------------------------------------------


def test_orbit_statistics_rigid_three_points(fast_flow):
    H = RigidRotationHamiltonian(2, 1, 3)
    # start away from bin edges: orbit angles land at 0.4 + 2 pi k/3
    p0 = 0.5 * np.array([np.cos(0.4), np.sin(0.4)])
    stats = orbit_statistics(H, p0, iterations=30,
                             bins=36, settings=fast_flow)
    occupied = np.count_nonzero(stats.theta_histogram[0])
    assert occupied == 3
    assert np.max(np.abs(stats.radii - 0.5)) <= 1e-8
    assert abs(stats.birkhoff_r2[-1] - 0.25) <= 1e-8


def test_orbit_statistics_fixed_center(fast_flow):
    H = RigidRotationHamiltonian(2, 1, 3)
    stats = orbit_statistics(H, np.array([0.0, 0.0]), iterations=5,
                             settings=fast_flow)
    assert np.max(stats.radii) <= 1e-12


def test_orbit_statistics_near_uniform_angles(fast_flow):
    # a large denominator distributes angles almost uniformly
    H = RigidRotationHamiltonian(2, 13, 34)
    stats = orbit_statistics(H, np.array([0.4, 0.0]), iterations=340,
                             bins=17, settings=fast_flow)
    counts = stats.theta_histogram[0]
    assert counts.min() > 0
    assert counts.max() - counts.min() <= 0.2 * counts.mean() + 2


def test_orbit_statistics_rejects_huge_n():
    H = RigidRotationHamiltonian(2, 1, 3)
    with pytest.raises(PreconditionError):
        orbit_statistics(H, np.array([0.1, 0.0]), iterations=2_000_000)


# ---------------------------------------------------------------------------
# the composition law
# ---------------------------------------------------------------------------


def test_composition_law(composed_k_2_1_2):
    rng = np.random.default_rng(77)
    composite = composed_k_2_1_2
    K, H2 = composite.K, composite.H2
    pts = random_disc_points(rng, 100, r_max=0.85)
    flow_settings = FlowSettings(step=TWO_PI / 500)
    left = return_map(composite, pts, flow_settings)
    right = return_map(K, return_map(H2, pts, flow_settings), flow_settings)
    assert np.max(np.abs(left - right)) <= 1e-5


def test_composition_law_time_dependent():
    rng = np.random.default_rng(78)
    K = compact_disc_hamiltonian(amp=0.04, angular=0.0,
                                 time_factor=lambda s: np.cos(s))
    H2 = QuadraticHamiltonian(1.7, 0.3)
    composite = ComposedHamiltonian(K, H2)
    pts = random_disc_points(rng, 30, r_max=0.8)
    flow_settings = FlowSettings(step=TWO_PI / 500)
    left = return_map(composite, pts, flow_settings)
    right = return_map(K, return_map(H2, pts, flow_settings), flow_settings)
    assert np.max(np.abs(left - right)) <= 1e-5


def _composed_slices(monkeypatch):
    K = compact_disc_hamiltonian(amp=0.05)
    composite = ComposedHamiltonian(K, RigidRotationHamiltonian(2, 1, 2),
                                    n_slices=32, grid_n=21)
    ax = composite._ax
    # slice 2's spline interpolates its slice table at the nodes
    return composite, (ax[7], ax[12]), composite._w2[2][7, 12], 1e-12


def _canonical_slices(monkeypatch):
    # a coarse re-gridding keeps 26 slice builds cheap; the cache rule does
    # not depend on the grid
    monkeypatch.setattr(moser, "_ORACLE_GRID", 41)
    K = compact_disc_hamiltonian(amp=0.02, time_factor=np.cos)
    H = canonical_hamiltonian(
        HamiltonianIsotopyPath(K, steps_per_period=200),
        CanonicalRecoverySettings(n_r=64, n_theta=16, n_s=32))
    # a slice is a deterministic function of its index: slice 2 built
    # afresh is slice 2 bit for bit
    xy = (0.3, -0.2)
    return H, xy, float(H._slice_field(2).ev(0, 0, *xy)), 0.0


@pytest.mark.parametrize("case", [_composed_slices, _canonical_slices],
                         ids=["ComposedHamiltonian", "CanonicalHamiltonian"])
def test_slice_cache_survives_backward_step(case, monkeypatch):
    H, (x, y), want, tol = case(monkeypatch)
    for j in range(5, 30):
        H.slices[j]
    # a backward step after a forward sweep used to evict its own slice
    field = H.slices[2]
    assert field.ev(0, 0, x, y) == pytest.approx(want, abs=tol)
    assert 2 in H.slices and len(H.slices) == 16


def test_composed_value_blends_the_slice_splines():
    # value is K plus the cubic-in-s blend of the quintic slice splines,
    # bitwise; at s = 0, where Psi_0 is the identity, that is K + H2, and a
    # quintic spline reproduces the quadratic H2 (2.2e-15 worst seen)
    from reebcut.hamiltonians import slice_weights

    K = compact_disc_hamiltonian(amp=0.05)
    H2 = RigidRotationHamiltonian(2, 1, 2)
    composite = ComposedHamiltonian(K, H2, n_slices=32, grid_n=21)
    pts = np.random.default_rng(12).uniform(-0.7, 0.7, (50, 2))
    ax = composite._ax
    for s in (0.0, 1.3, TWO_PI):
        js, w = slice_weights(composite.s_nodes, s)
        want = K.value(s, pts)
        for a, wa in zip(js, w):
            spline = RectBivariateSpline(ax, ax, composite._w2[a], kx=5, ky=5)
            want = want + wa * spline(pts[..., 0], pts[..., 1], grid=False)
        assert bitwise_equal(composite.value(s, pts), want)
    exact = K.value(0.0, pts) + H2.value(0.0, pts)
    assert np.max(np.abs(composite.value(0.0, pts) - exact)) <= 1e-13


def test_composed_rejects_s_outside_domain():
    K = compact_disc_hamiltonian(amp=0.05)
    composite = ComposedHamiltonian(K, RigidRotationHamiltonian(2, 1, 2),
                                    n_slices=32, grid_n=21)
    pt = np.array([0.3, 0.2])
    for s in (3.0 * np.pi, -0.5):
        with pytest.raises(PreconditionError):
            composite.value(s, pt)
        with pytest.raises(PreconditionError):
            composite.grad(s, pt)
    # the ends and an RK4-sized overshoot of them stay inside the domain
    for s in (0.0, TWO_PI, np.nextafter(TWO_PI, 7.0), -1e-15):
        assert np.all(np.isfinite(composite.grad(s, pt)))


def _old_composed_w2(K, H2, n_slices, grid_n):
    """The composite's slice table as built with its own RK4 loop (two
    substeps per slice, time advanced by ``s += h``, pad 0.05)."""
    ax = np.linspace(-1.05, 1.05, grid_n)
    s_nodes = np.linspace(0.0, TWO_PI, n_slices + 1)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    w2 = np.empty((n_slices + 1, grid_n, grid_n))
    w2[0] = H2.value(0.0, nodes).reshape(grid_n, grid_n)
    inverse = nodes.copy()
    for j in range(n_slices):
        s_hi = s_nodes[j + 1]
        h = (s_nodes[j] - s_hi) / 2
        pts = nodes.copy()
        s = s_hi
        for _ in range(2):
            k1 = K.velocity(s, pts)
            k2 = K.velocity(s + 0.5 * h, pts + 0.5 * h * k1)
            k3 = K.velocity(s + 0.5 * h, pts + 0.5 * h * k2)
            k4 = K.velocity(s + h, pts + h * k3)
            pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        px = np.clip(pts[:, 0], ax[0], ax[-1])
        py = np.clip(pts[:, 1], ax[0], ax[-1])
        if not H2.time_dependent:
            spw = RectBivariateSpline(ax, ax, w2[j], kx=5, ky=5)
            w2[j + 1] = spw.ev(px, py).reshape(grid_n, grid_n)
        else:
            spx = RectBivariateSpline(ax, ax, inverse[:, 0].reshape(grid_n, grid_n),
                                      kx=5, ky=5)
            spy = RectBivariateSpline(ax, ax, inverse[:, 1].reshape(grid_n, grid_n),
                                      kx=5, ky=5)
            inverse = np.stack([spx.ev(px, py), spy.ev(px, py)], axis=-1)
            w2[j + 1] = H2.value(s_nodes[j + 1], inverse).reshape(grid_n, grid_n)
    return w2


@pytest.mark.parametrize("case", ["scalar_march", "time_dependent"])
def test_composed_build_matches_own_rk4_loop_bitwise(case):
    if case == "scalar_march":
        K = compact_disc_hamiltonian(amp=0.05)
        H2 = RigidRotationHamiltonian(2, 1, 2)
    else:
        K = compact_disc_hamiltonian(amp=0.04, time_factor=np.cos)
        H2 = compact_disc_hamiltonian(amp=0.03, time_factor=np.sin)
    composite = ComposedHamiltonian(K, H2, n_slices=32, grid_n=21)
    want = _old_composed_w2(K, H2, 32, 21)
    assert np.array_equal(composite._w2.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("option", ["pad", "substeps"])
def test_composed_has_no_lattice_options(option):
    K = compact_disc_hamiltonian(amp=0.05)
    with pytest.raises(TypeError):
        ComposedHamiltonian(K, RigidRotationHamiltonian(2, 1, 2), n_slices=32,
                            grid_n=21, **{option: 2})


def test_stage_orbit_statistics_float_path_is_exact(stage_2_1_3, fast_flow):
    from types import SimpleNamespace

    H = stage_2_1_3.hamiltonian
    # no point_velocity: the same stage integrated by the array path
    array_only = SimpleNamespace(velocity=H.velocity)
    for p0, iterations in (([0.5, 0.1], 12), ([1.01, 0.0], 4)):
        stats = orbit_statistics(H, np.array(p0), iterations=iterations,
                                 settings=fast_flow)
        ref = orbit_statistics(array_only, np.array(p0), iterations=iterations,
                               settings=fast_flow)
        assert (stats.completed, stats.aborted) == (ref.completed, ref.aborted)
        assert bitwise_equal(stats.radii, ref.radii)
        assert bitwise_equal(stats.angles, ref.angles)
    # the start outside the disc aborts before its first return
    assert (stats.completed, stats.aborted) == (0, True)


def test_orbit_statistics_aborts_on_escape(fast_flow):
    # a Hamiltonian that is not tangent to the boundary pushes orbits out
    from reebcut import CallableHamiltonian

    H = CallableHamiltonian(
        lambda s, xy: 2.0 + xy[..., 0], 2.0,
        grad_fn=lambda s, xy: np.stack(
            [np.ones(xy.shape[:-1]), np.zeros(xy.shape[:-1])], axis=-1),
        time_dependent=False,
    )
    stats = orbit_statistics(H, np.array([0.0, -0.99]), iterations=50,
                             settings=fast_flow)
    assert stats.aborted
    assert stats.completed < 50
