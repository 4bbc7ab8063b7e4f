import os
import tracemalloc

import numpy as np
import pytest

from reebcut import (
    BumpProfile,
    CanonicalRecoverySettings,
    ConfigurationError,
    GridFunction2D,
    HamiltonianIsotopyPath,
    MoserSettings,
    PreconditionError,
    RigidRotationHamiltonian,
    canonical_hamiltonian,
    moser_flow,
    moser_pullback_residual,
    poincare_primitive,
    primitive_residual,
    zero_integral_fixture,
)
from reebcut.hamiltonians import QuinticField
from reebcut import moser
from reebcut.moser import MoserMap, _tensor_splines_ev, g_function_values
from reebcut.geometry import polar_grid, tiles

from conftest import assert_no_child_left, compact_disc_hamiltonian, count_forks


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------


def test_bump_profile_unit_integral():
    chi = BumpProfile.polynomial()
    y = np.linspace(0.0, 1.0, 20001)
    integral = np.trapezoid(chi(y), y)
    assert abs(integral - 1.0) <= 1e-10
    assert chi(0.29) == 0.0 and chi(0.71) == 0.0


def test_grid_function_compact_margin_enforced():
    vals = np.zeros((64, 64))
    vals[1, 1] = 1.0
    with pytest.raises(PreconditionError):
        GridFunction2D(vals)


# ---------------------------------------------------------------------------
# the compactly supported Poincare lemma
# ---------------------------------------------------------------------------


def test_primitive_of_zero_is_zero():
    eta = GridFunction2D(np.zeros((64, 64)))
    beta = poincare_primitive(eta)
    assert np.max(np.abs(beta.dx.values)) == 0.0
    assert np.max(np.abs(beta.dy.values)) == 0.0


@pytest.mark.parametrize("fixture", [1, 2, 3])
def test_primitive_residual_and_support(fixture):
    eta = zero_integral_fixture(fixture, 256)
    beta = poincare_primitive(eta)
    assert primitive_residual(eta, beta) <= 1e-6
    # compact support: exact zeros on the two-cell margins
    for arr in (beta.dx.values, beta.dy.values):
        assert np.max(np.abs(arr[:2])) == 0.0
        assert np.max(np.abs(arr[-2:])) == 0.0
        assert np.max(np.abs(arr[:, :2])) == 0.0
        assert np.max(np.abs(arr[:, -2:])) == 0.0


def test_primitive_rejects_nonzero_integral():
    vals = zero_integral_fixture(1, 64).values + 1e-4
    vals[:2] = vals[-2:] = 0.0
    vals[:, :2] = vals[:, -2:] = 0.0
    with pytest.raises(PreconditionError):
        poincare_primitive(GridFunction2D(vals, compact=False))


def test_primitive_linearity():
    n = 128
    e1 = zero_integral_fixture(1, n)
    e2 = zero_integral_fixture(3, n)
    b1 = poincare_primitive(e1)
    b2 = poincare_primitive(e2)
    bsum = poincare_primitive(GridFunction2D(e1.values + e2.values))
    assert np.max(np.abs(bsum.dx.values - b1.dx.values - b2.dx.values)) <= 1e-10
    assert np.max(np.abs(bsum.dy.values - b1.dy.values - b2.dy.values)) <= 1e-10


def test_primitive_residual_order_under_doubling():
    res = {}
    for n in (128, 256):
        eta = zero_integral_fixture(1, n)
        res[n] = primitive_residual(eta, poincare_primitive(eta))
    order = np.log2(res[128] / res[256])
    assert order >= 2.0


# The square-side pipeline works in place and in row tiles.  The whole-array
# expressions below are the reference: every value must equal theirs to the
# last bit, so no report byte can move.


def _fixture_whole(idx, n):
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    bump = moser._poly_bump
    if idx == 1:
        return bump(xx, 0.15, 0.85, order=1) * bump(yy, 0.2, 0.8)
    if idx == 2:
        a = bump(xx, 0.2, 0.8, 5) * bump(yy, 0.25, 0.75, 5)
        b = bump(xx, 0.1, 0.9, 5) * bump(yy, 0.1, 0.9, 5)
        return a - b * (a.sum() / b.sum())
    w = bump(xx, 0.12, 0.88) * bump(yy, 0.15, 0.85)
    center = (w * xx).sum() / w.sum()
    return w * (xx - center)


def _cumulative_whole(values, axis):
    n = values.shape[axis]
    k = 2j * np.pi * np.fft.fftfreq(n, 1 / n)
    shape = [1] * values.ndim
    shape[axis] = -1
    k = k.reshape(shape)
    hat = np.fft.fft(values, axis=axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        hat = np.where(k == 0, 0.0, hat / np.where(k == 0, 1.0, k))
    prim = np.real(np.fft.ifft(hat, axis=axis))
    return prim - np.take(prim, [0], axis=axis)


def _fd6_whole(values, axis):
    h = 1.0 / values.shape[axis]

    def roll(k):
        return np.roll(values, -k, axis=axis)

    return (-roll(-3) + 9 * roll(-2) - 45 * roll(-1)
            + 45 * roll(1) - 9 * roll(2) + roll(3)) / (60 * h)


def _primitive_whole(g):
    n = len(g)
    chi_y = BumpProfile.polynomial()(np.arange(n) / n)
    chi_y = chi_y / (chi_y.sum() / n)
    a = g.sum(axis=1) / n
    a = a - a.mean()
    b = np.real(_cumulative_whole(a, axis=0))
    v = _cumulative_whole(-g + a[:, None] * chi_y[None, :], axis=1)
    v[:2, :] = v[-2:, :] = 0.0
    v[:, :2] = v[:, -2:] = 0.0
    b[:2] = b[-2:] = 0.0
    return v, b[:, None] * chi_y[None, :]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("fixture", [1, 2, 3])
def test_poincare_pipeline_is_the_whole_array_pipeline(fixture, n):
    eta = zero_integral_fixture(fixture, n)
    _assert_bitwise(eta.values, _fixture_whole(fixture, n))
    beta = poincare_primitive(eta)
    v, w = _primitive_whole(eta.values)
    _assert_bitwise(beta.dx.values, v)
    _assert_bitwise(beta.dy.values, w)
    d = _fd6_whole(w, 0) - _fd6_whole(v, 1)
    _assert_bitwise(beta._d_rows(slice(None)), d)
    want = float(np.max(np.abs(d - eta.values)))
    assert primitive_residual(eta, beta).hex() == want.hex()


def test_the_pipeline_cases_span_several_tiles():
    # so the cases above compare more than one row tile with the whole grid
    assert len(tiles(256, 256)) > 1 and len(tiles(256, 512)) > 1


@pytest.mark.parametrize("shape,axes", [
    ((64,), (0, -1)),
    ((48, 64), (0, 1, -1)),
    ((6, 40, 12), (0, 1, -1)),   # (s, r, theta), as _radial_antiderivative
])
@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_cumulative_is_the_out_of_place_transform(shape, axes, dtype,
                                                           rng):
    # a complex input (zero imaginary part) would be overwritten by a
    # transform that skipped the copy, which a float one cannot show
    values = rng.standard_normal(shape).astype(dtype)
    before = values.copy()
    for axis in axes:
        _assert_bitwise(moser.spectral_cumulative(values, axis),
                        _cumulative_whole(values, axis))
        assert np.array_equal(values.view(np.uint64), before.view(np.uint64))


def test_a_nan_in_eta_makes_the_residual_nan():
    eta = zero_integral_fixture(1, 64)
    beta = poincare_primitive(eta)
    eta.values[40, 30] = np.nan
    assert np.isnan(primitive_residual(eta, beta))


def test_poincare_scratch_is_bounded():
    # at n = 512 a grid array is 2 MiB.  The primitive and its residual
    # trace 4.63 MiB: beta's two components (4 MiB) and row tiles of some
    # TILE_ELEMENTS floats (0.63 MiB).  The bound allows one more grid
    # array; the whole-array pipeline traced 14.0 MiB.
    n = 512
    eta = zero_integral_fixture(1, n)
    grid_mib = n * n * 8 / 2**20
    tracemalloc.start()
    try:
        primitive_residual(eta, poincare_primitive(eta))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 3 * grid_mib


# ---------------------------------------------------------------------------
# Moser flow
# ---------------------------------------------------------------------------


def _density_pair(n=128, amplitude=0.2):
    base = zero_integral_fixture(2, n)
    scale = amplitude / float(np.abs(base.values).max())
    w0 = GridFunction2D(np.ones((n, n)), compact=False)
    w1 = GridFunction2D(1.0 + scale * base.values, compact=False)
    return w0, w1


def test_moser_identity_when_forms_equal():
    n = 64
    w = GridFunction2D(np.ones((n, n)), compact=False)
    psi = moser_flow(w, w, settings=MoserSettings(steps=16))
    assert np.max(np.abs(psi.displacement())) == 0.0


def test_moser_pullback_residual():
    w0, w1 = _density_pair(128, 0.2)
    psi = moser_flow(w0, w1, settings=MoserSettings(steps=48))
    assert moser_pullback_residual(psi, w0, w1) <= 1e-5
    d = psi.displacement()
    for sl in (d[:2], d[-2:], d[:, :2], d[:, -2:]):
        assert np.max(np.abs(sl)) == 0.0


def test_moser_iterative_refinement_reduces_residual():
    # a deliberately coarse first pass, then a corrective second pass
    w0, w1 = _density_pair(96, 0.45)
    rough = moser_flow(w0, w1, settings=MoserSettings(steps=2))
    res1 = moser_pullback_residual(rough, w0, w1)
    jac = rough.jacobian_grid()
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    img = rough.grid_images
    hi = (w1.n - 1) / w1.n
    achieved = rough._g1.ev(0, 0, np.clip(img[..., 0], 0, hi),
                            np.clip(img[..., 1], 0, hi)) * det
    # mathematically the pullback is exactly 1 on the static margin; clear
    # the spectral dust so the precondition check sees that
    achieved[:2] = achieved[-2:] = 1.0
    achieved[:, :2] = achieved[:, -2:] = 1.0
    achieved = GridFunction2D(achieved, compact=False)
    correction = moser_flow(w0, achieved, settings=MoserSettings(steps=48))
    res2 = moser_pullback_residual(correction, w0, achieved)
    assert res2 < res1


def test_moser_rejects_nonpositive_density():
    n = 64
    w0 = GridFunction2D(np.ones((n, n)), compact=False)
    bad = GridFunction2D(np.full((n, n), -0.5), compact=False)
    with pytest.raises(PreconditionError):
        moser_flow(w0, bad)


def test_moser_rejects_unequal_integrals():
    n = 64
    w0 = GridFunction2D(np.ones((n, n)), compact=False)
    w1 = GridFunction2D(np.ones((n, n)) * 1.01, compact=False)
    with pytest.raises(PreconditionError):
        moser_flow(w0, w1)


@pytest.mark.parametrize("field, value, error", [
    ("steps", 0, ConfigurationError),   # was a bare ZeroDivisionError
    ("steps", -3, ConfigurationError),  # was silently the identity map
    ("steps", 2.5, ConfigurationError),
    # the degree is the constant QuinticField.degree, so no value is taken
    ("spline_degree", 0, TypeError),
    ("spline_degree", 6, TypeError),
], ids=["steps-0", "steps--3", "steps-2.5", "spline_degree-0",
        "spline_degree-6"])
def test_moser_settings_rejects_bad_values(field, value, error):
    with pytest.raises(error):
        MoserSettings(**{field: value})


def test_moser_settings_has_one_spline_degree():
    # every tensor spline is a QuinticField, so the degree is no option
    with pytest.raises(TypeError):
        MoserSettings(spline_degree=5)
    assert QuinticField.degree == 5


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_shared_basis_evaluator_matches_fitpack_bitwise(degree):
    from scipy.interpolate import RectBivariateSpline

    rng = np.random.default_rng(degree)
    x = np.arange(24) / 24
    y = np.sort(rng.uniform(-1.0, 2.0, 19))
    splines = [RectBivariateSpline(x, y, rng.standard_normal((24, 19)),
                                   kx=degree, ky=degree) for _ in range(3)]
    tx, ty = splines[0].get_knots()
    coefs = np.stack([sp.get_coeffs() for sp in splines])
    xs = np.concatenate([
        x, 0.5 * (x[1:] + x[:-1]),                # grid nodes, midpoints
        rng.uniform(-0.5, 1.5, 400),              # inside and clamped
        [-1.0, 2.0, -0.0, 0.0, np.nan, np.inf, -np.inf, np.nan],
    ])
    ys = np.concatenate([
        np.resize(y, 24), np.resize(0.5 * (y[1:] + y[:-1]), 23),
        rng.uniform(-2.0, 3.0, 400),
        [0.5, -5.0, 0.0, -0.0, 0.1, 0.2, np.nan, np.nan],
    ])
    got = _tensor_splines_ev(tx, ty, degree, degree, coefs, xs, ys)
    assert got.shape == (3, xs.size)
    for row, sp in zip(got, splines):
        assert np.array_equal(_bits(row), _bits(sp.ev(xs, ys)))


def test_moser_grid_images_match_fitpack_rk4_loop_bitwise():
    # the flow as it was written before the shared-basis evaluator and the
    # shared RK4 loop: four scipy ``ev`` calls per field, inline RK4 steps
    from scipy.interpolate import RectBivariateSpline

    w0, w1 = _density_pair(32, 0.3)
    settings = MoserSettings(steps=6)
    sigma = poincare_primitive(GridFunction2D(w1.values - w0.values))
    psi = MoserMap(sigma, w0, w1, settings)

    x = np.arange(32) / 32
    sx, sy, g0, g1 = (RectBivariateSpline(x, x, v, kx=5, ky=5)
                      for v in (sigma.dx.values, sigma.dy.values,
                                w0.values, w1.values))
    x0, x1, y0, y1 = psi._box

    def field(t, pts):
        px = np.clip(pts[..., 0], 0.0, x[-1])
        py = np.clip(pts[..., 1], 0.0, x[-1])
        gt = (1.0 - t) * g0.ev(px, py) + t * g1.ev(px, py)
        inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        return np.stack([np.where(inside, -sy.ev(px, py) / gt, 0.0),
                         np.where(inside, sx.ev(px, py) / gt, 0.0)], axis=-1)

    xx, yy = np.meshgrid(x, x, indexing="ij")
    y = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    h = 1.0 / settings.steps
    for i in range(settings.steps):
        t = i * h
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = field(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(psi.displacement())) > 1e-3
    assert np.array_equal(_bits(psi.grid_images), _bits(y.reshape(32, 32, 2)))


def test_forked_moser_flow_is_bitwise_the_one_process_flow(monkeypatch):
    # 1024 nodes in blocks of 256: one CPU flows them in-process, two
    # fork one worker for the second share, and the images agree bit for bit
    monkeypatch.setattr(moser, "_BLOCK", 256)
    w0, w1 = _density_pair(32, 0.3)
    forks = count_forks(monkeypatch)
    images = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        psi = moser_flow(w0, w1, settings=MoserSettings(steps=6))
        assert_no_child_left()
        assert len(forks) == len(cpus) - 1
        images[len(cpus)] = psi.grid_images
    assert np.max(np.abs(psi.displacement())) > 1e-3
    assert np.array_equal(_bits(images[1]), _bits(images[2]))


# ---------------------------------------------------------------------------
# canonical Hamiltonian
# ---------------------------------------------------------------------------


def test_canonical_round_trip_autonomous(autonomous_recovery):
    K, _, H = autonomous_recovery
    worst = 0.0
    for j in range(0, len(H.s_nodes), 24):
        s = H.s_nodes[j]
        err = np.max(np.abs(H.values_at_images[j] - K.value(s, H.image_points[j])))
        worst = max(worst, float(err))
    assert worst <= 1e-5


def test_isotopy_path_matches_plain_rk4_loop_bitwise():
    # the fixed-step loop the path ran before it used flows' RK4 steps
    K = compact_disc_hamiltonian(amp=0.02, time_factor=np.cos)
    path = HamiltonianIsotopyPath(K, steps_per_period=200)
    s_values = np.array([1.5, 0.0, 0.4, 1.5 + 1e-9, 6.0])
    pts = polar_grid(3, 5, r_max=0.8)
    expected = np.empty((len(s_values),) + pts.shape)
    cur, s_prev = pts, 0.0
    for idx in np.argsort(s_values):
        s = s_values[idx]
        if s > s_prev:
            n = max(2, int(np.ceil((s - s_prev) / (2 * np.pi) * 200)))
            h = (s - s_prev) / n
            for i in range(n):
                t = s_prev + i * h
                k1 = K.velocity(t, cur)
                k2 = K.velocity(t + 0.5 * h, cur + 0.5 * h * k1)
                k3 = K.velocity(t + 0.5 * h, cur + 0.5 * h * k2)
                k4 = K.velocity(t + h, cur + h * k3)
                cur = cur + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s_prev = s
        expected[idx] = cur
    got = path.evaluate_on_grid(s_values, pts)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_canonical_identity_path_gives_zero():
    class IdentityPath:
        def evaluate_on_grid(self, s_values, pts):
            return np.broadcast_to(pts, (len(s_values),) + pts.shape).copy()

    H = canonical_hamiltonian(IdentityPath(),
                              CanonicalRecoverySettings(n_r=64, n_theta=16,
                                                        n_s=32))
    assert np.max(np.abs(H.values_at_images)) <= 1e-10


def test_canonical_round_trip_time_dependent(time_dependent_recovery):
    K, _, H = time_dependent_recovery
    worst = 0.0
    for j in range(0, len(H.s_nodes), 16):
        s = H.s_nodes[j]
        err = np.max(np.abs(H.values_at_images[j] - K.value(s, H.image_points[j])))
        worst = max(worst, float(err))
    assert worst <= 1e-5


def test_canonical_oracle_and_support(autonomous_recovery):
    K, _, H = autonomous_recovery
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.7, 0.7, size=(200, 2))
    for s in (0.9, 4.1):
        assert np.max(np.abs(H.value(s, pts) - K.value(s, pts))) <= 1e-5
        # the slice splines' gradient: 1.1e-4 worst seen, on gradients up to 0.2
        assert np.max(np.abs(H.grad(s, pts) - K.grad(s, pts))) <= 2e-4
    # identical zero on the declared support margin
    theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    for r in (H.support_radius * (1 + 1e-9), 0.5 * (1 + H.support_radius), 0.999):
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert np.all(H.value(1.0, ring) == 0.0)
        assert np.all(H.grad(1.0, ring) == 0.0)


def test_canonical_rejects_non_area_preserving():
    class SqueezePath:
        def evaluate_on_grid(self, s_values, pts):
            out = np.empty((len(s_values),) + pts.shape)
            for i, s in enumerate(np.asarray(s_values)):
                factor = 1.0 + 0.05 * s
                out[i] = pts * [factor, 1.0]
            return out

    with pytest.raises(PreconditionError):
        canonical_hamiltonian(SqueezePath(),
                              CanonicalRecoverySettings(n_r=64, n_theta=16,
                                                        n_s=32))


def test_canonical_rejects_path_not_starting_at_identity():
    class ShiftedPath:
        def evaluate_on_grid(self, s_values, pts):
            return np.broadcast_to(pts + 0.01, (len(s_values),) + pts.shape).copy()

    with pytest.raises(PreconditionError):
        canonical_hamiltonian(ShiftedPath(),
                              CanonicalRecoverySettings(n_r=64, n_theta=16,
                                                        n_s=32))


@pytest.mark.parametrize("route", ["radial", "axis"])
def test_g_function_vanishes_for_a_rigid_rotation(route):
    # a rigid rotation keeps lambda = r^2 dtheta, so G = 0 in closed form;
    # the origin takes the radial route's zero-radius direction
    path = HamiltonianIsotopyPath(RigidRotationHamiltonian(2, 1, 3))
    targets = np.concatenate([[[0.0, 0.0]], polar_grid(2, 4, r_max=0.7,
                                                       include_center=False)])
    g = g_function_values(path, 1.3, targets, route=route)
    assert np.max(np.abs(g)) <= 1e-10


def test_g_function_path_independence(autonomous_recovery):
    _, path, _ = autonomous_recovery
    targets = polar_grid(3, 5, r_max=0.7, include_center=False)
    g_rad = g_function_values(path, 1.3, targets, route="radial", n_quad=801)
    g_ax = g_function_values(path, 1.3, targets, route="axis", n_quad=801)
    assert np.max(np.abs(g_rad - g_ax)) <= 1e-6
