import numpy as np
import pytest

from reebcut import (
    ConfigurationError,
    DiscPoint,
    PreconditionError,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    SamplingGrid,
    contact_audit,
    contact_margin,
    cosine_defect_hamiltonian,
    hamiltonian_vector_field,
    liouville_pairing,
)
from reebcut.hamiltonians import (CallableHamiltonian, Hamiltonian,
                                  QuinticField, SlicedHamiltonian,
                                  check_s_periodicity)
from reebcut.geometry import TWO_PI, spectral_derivative

from conftest import (SQRT2, compact_disc_hamiltonian, hopf_circles,
                      lagrange_slice_weights, random_disc_points)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_disc_point_polar_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = rng.uniform(1e-8, 1.0)
        theta = rng.uniform(0.0, TWO_PI)
        p = DiscPoint(r * np.cos(theta), r * np.sin(theta))
        assert abs(p.r - r) <= 1e-12
        assert abs((p.theta - theta + np.pi) % TWO_PI - np.pi) <= 1e-12


def test_disc_point_rejects_exterior():
    with pytest.raises(PreconditionError):
        DiscPoint(1.2, 0.3)


def test_spectral_derivative_exact_on_trig_polynomials():
    t = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    f = np.stack([np.sin(3 * t), np.cos(2 * t) + 0.5], axis=-1)
    df = np.stack([3 * np.cos(3 * t), -2 * np.sin(2 * t)], axis=-1)
    assert np.max(np.abs(spectral_derivative(f, axis=0) - df)) <= 1e-13
    d2 = spectral_derivative(f.T, order=2)
    assert np.max(np.abs(d2 - np.stack([-9 * np.sin(3 * t),
                                        -4 * np.cos(2 * t)]))) <= 1e-12


@pytest.mark.parametrize("n", [7, 8, 64, 65])
def test_spectral_derivative_matches_the_old_copies_bitwise(n):
    # the helper replaced copies that multiplied by k itself (order 1) and
    # by k**order, and the unit-period copy of the Moser Jacobian; all must
    # give the same bits
    def old(values, axis, order, power):
        k = 1.0j * np.fft.fftfreq(n, d=1.0 / n)
        k = k**order if power else k
        shape = [1] * values.ndim
        shape[axis] = n
        hat = np.fft.fft(values, axis=axis) * k.reshape(shape)
        return np.real(np.fft.ifft(hat, axis=axis))

    rng = np.random.default_rng(n)
    cases = [(rng.standard_normal((3, n)), -1, 1, True),
             (rng.standard_normal((3, n)), -1, 2, True),
             (rng.standard_normal(n), -1, 2, True),
             (rng.standard_normal((n, 4, 5)), 0, 1, False),
             (rng.standard_normal((n, 3)), 0, 1, False)]
    for values, axis, order, power in cases:
        got = spectral_derivative(values, axis=axis, order=order)
        want = old(values, axis, order, power)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def old_unit_period(values, axis):
        # moser.spectral_partial: 2 pi i k on samples of [0, 1)
        m = values.shape[axis]
        k = 2.0j * np.pi * np.fft.fftfreq(m, d=1.0 / m)
        shape = [1] * values.ndim
        shape[axis] = -1
        hat = np.fft.fft(values, axis=axis) * k.reshape(shape)
        return np.real(np.fft.ifft(hat, axis=axis))

    # n and n + 3 differ in parity, so each axis meets odd and even lengths
    for values in (rng.standard_normal((n, n + 3)),
                   rng.standard_normal((n + 3, n))):
        for axis in (0, 1):
            got = spectral_derivative(values, axis=axis, period=1.0)
            want = old_unit_period(values, axis)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_boundary_value_within_tolerance():
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    theta = np.linspace(0, TWO_PI, 64, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    for s in (0.0, 1.0, 4.0):
        assert np.max(np.abs(H.value(s, ring) - H.boundary_value)) <= 1e-10


def test_s_periodicity_check():
    H = QuadraticHamiltonian(1.0, 1.0)
    assert check_s_periodicity(H) <= 1e-10
    bad = CallableHamiltonian(lambda s, xy: np.full(xy.shape[:-1], s), 0.0)
    with pytest.raises(PreconditionError):
        check_s_periodicity(bad)


# ---------------------------------------------------------------------------
# hamiltonian_vector_field
# ---------------------------------------------------------------------------


def test_vector_field_quadratic_is_rotation():
    H = QuadraticHamiltonian(0.7, 1.3)
    p = DiscPoint(0.3, -0.5)
    X = hamiltonian_vector_field(H, 0.0, p)
    # X = -a2 d/dtheta = (a2 y, -a2 x)
    assert np.allclose(X, [1.3 * p.y, -1.3 * p.x], atol=1e-14)


def test_vector_field_constant_vanishes():
    H = QuadraticHamiltonian(3.0, 0.0)
    X = hamiltonian_vector_field(H, 0.5, DiscPoint(0.2, 0.9))
    assert np.allclose(X, 0.0)


def test_vector_field_against_symbolic_oracle():
    # independent symbolic-differentiation oracle for
    # H = h + (1 - r^2)(c + d cos theta)
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    h_, c_, d_ = 3, 0.4, 0.7
    r = sympy.sqrt(x**2 + y**2)
    expr = h_ + (1 - r**2) * (c_ + d_ * x / r)
    gx = sympy.lambdify((x, y), sympy.diff(expr, x))
    gy = sympy.lambdify((x, y), sympy.diff(expr, y))

    H = cosine_defect_hamiltonian(h_, c_, d_)
    p = DiscPoint(0.5, 0.0)
    X = hamiltonian_vector_field(H, 0.0, p)
    expected = np.array([0.5 * gy(p.x, p.y), -0.5 * gx(p.x, p.y)])
    assert np.max(np.abs(X - expected)) <= 1e-9


def test_vector_field_definition_on_random_points(rng):
    # omega(X, .) = dH componentwise within 1e-8, for every built-in
    hams = [
        QuadraticHamiltonian(SQRT2, 2 - SQRT2),
        RigidRotationHamiltonian(2, 1, 3),
        cosine_defect_hamiltonian(3, 0.4, 0.2),
    ]
    pts = random_disc_points(rng, 1000, r_max=0.95, r_min=0.05)
    for H in hams:
        g = H.grad(0.0, pts)
        X = H.velocity(0.0, pts)
        # omega = 2 dx ^ dy: omega(X, .) = (-2 X_y) dx + (2 X_x) dy
        defect = np.stack([-2 * X[..., 1] - g[..., 0],
                           2 * X[..., 0] - g[..., 1]], axis=-1)
        assert np.max(np.abs(defect)) <= 1e-8


_LINEAR_FIELDS = [
    QuadraticHamiltonian(1.4142, 0.5858),
    QuadraticHamiltonian(1.0, 0.0),
    QuadraticHamiltonian(2.0, -0.7),
    QuadraticHamiltonian(1.0, 10.0),
    QuadraticHamiltonian(1.0, -10.0),
    RigidRotationHamiltonian(2, 1, 3),
]


def _velocity_bits(H, xy):
    # the folded velocity and the base class's, from grad, as int64 views;
    # 0 * inf is NaN in both
    with np.errstate(invalid="ignore"):
        return (H.velocity(0.0, xy).view(np.int64),
                Hamiltonian.velocity(H, 0.0, xy).view(np.int64))


@pytest.mark.parametrize("H", _LINEAR_FIELDS)
def test_folded_linear_velocity_is_the_base_velocity_bitwise(H, rng):
    # (0.5 c) y against 0.5 (c y), c = 2 a2: scaling by +-0.5 is exact, so
    # the bits agree on signed zeros, infinities, NaN and every coordinate
    # from 1e-300 to 1e3, for a2 from -10 to 10: every product c y is 0, inf,
    # NaN or of normal magnitude.  The next test shows the exception below
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e3, -1e3]
    edge = np.array([(x, y) for x in special for y in special])
    mags = 10.0 ** rng.uniform(-300, 3, (81, 2))
    signs = rng.choice([-1.0, 1.0], mags.shape)
    pts = np.concatenate([edge, signs * mags])
    for xy in (pts, pts[::13][:12].reshape(3, 4, 2)):
        got, want = _velocity_bits(H, xy)
        assert got.shape == want.shape == xy.shape
        assert np.array_equal(got, want)


def test_folded_linear_velocity_subnormal_exception():
    # the exception the docstring states: c = 2.75, y = 2**-1074.  The
    # base rounds c y = 2.75 ulp to 3 ulp and halves it to 2 ulp (ties to
    # even); the folded rounds 1.375 ulp to 1 ulp
    H = QuadraticHamiltonian(1.0, 1.375)
    xy = np.array([[0.0, 5e-324]])
    assert H.velocity(0.0, xy)[0, 0] == 5e-324
    assert Hamiltonian.velocity(H, 0.0, xy)[0, 0] == 1e-323


def _two_call_bump(t, t0, t1, order):
    # the compact fixture's bump before its value and derivative shared
    # one exp core: each order rebuilt the core
    u = (np.asarray(t, dtype=float) - t0) / (t1 - t0)
    inside = (u > 1e-9) & (u < 1 - 1e-9)
    uc = np.where(inside, u, 0.5)
    core = np.exp(-1.0 / (uc * (1.0 - uc)) + 4.0)
    if order == 0:
        return np.where(inside, core, 0.0)
    dcore = core * (1.0 - 2.0 * uc) / (uc * (1.0 - uc)) ** 2 / (t1 - t0)
    return np.where(inside, dcore, 0.0)


@pytest.mark.parametrize("kw", [
    {}, {"amp": 0.05, "angular": 0.0, "t0": 0.01, "t1": 0.81},
    {"time_factor": np.cos},
])
def test_compact_fixture_grad_is_bitwise_unchanged(kw, rng):
    H = compact_disc_hamiltonian(**kw)
    amp, t0, t1 = kw.get("amp", 0.02), kw.get("t0", 0.04), kw.get("t1", 0.7744)
    angular = kw.get("angular", 0.4)
    pts = np.concatenate([
        [[0.0, 0.0], [-0.0, 0.5], [0.5, -0.0], [np.sqrt(t0), 0.0],
         [0.0, -np.sqrt(t1)], [0.99, 0.0]],
        random_disc_points(rng, 500, r_max=0.99, r_min=0.0),
    ])
    x, y = pts[:, 0], pts[:, 1]
    t = x * x + y * y
    w, wp = _two_call_bump(t, t0, t1, 0), _two_call_bump(t, t0, t1, 1)
    gx = amp * (wp * 2 * x * (1 + angular * x) + w * angular)
    gy = amp * (wp * 2 * y * (1 + angular * x))
    ref = np.stack([gx, gy], axis=-1)
    for s in (0.0, 1.3):
        want = ref * np.cos(s) if "time_factor" in kw else ref
        got = H.grad(s, pts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kw", [
    {}, {"amp": 0.05}, {"amp": 0.05, "angular": 0.0, "t0": 0.01, "t1": 0.81},
    {"time_factor": np.cos},
])
def test_compact_fixture_hessian_matches_finite_differences(kw, rng):
    # the analytic Hessian is the limit of the symmetrized centered
    # differences of the grad: at step 1e-4 they agree to 5e-5 (the worst
    # seen is 3.1e-5, on Hessian entries up to about 10), and halving the
    # step quarters the largest gap, as it must for a second-order stencil.
    # Every probe stays inside r <= 0.9902, on the fixture's domain
    H = compact_disc_hamiltonian(**kw)
    pts = random_disc_points(rng, 2000, r_max=0.99, r_min=0.0)
    hess = H.hessian(1.3, pts)

    def fd_gap(step):
        cols = []
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = step
            cols.append((H.grad(1.3, pts + e) - H.grad(1.3, pts - e))
                        / (2.0 * step))
        fd = np.stack(cols, axis=-1)
        return np.max(np.abs(hess - 0.5 * (fd + np.swapaxes(fd, -1, -2))))

    assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])
    assert fd_gap(1e-4) <= 5e-5
    assert 3.5 <= fd_gap(2e-4) / fd_gap(1e-4) <= 4.5


def test_cosine_defect_hessian_against_symbolic_oracle(rng):
    # the analytic Hessian of H = h + (1 - r^2)(c + d x / r) against sympy's,
    # symmetric bitwise, and 0 at the origin as the grad is
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    h_, c_, d_ = 3, 0.4, 0.7
    r = sympy.sqrt(x**2 + y**2)
    expr = h_ + (1 - r**2) * (c_ + d_ * x / r)
    second = [[sympy.lambdify((x, y), sympy.diff(expr, a, b)) for b in (x, y)]
              for a in (x, y)]
    pts = random_disc_points(rng, 500, r_max=1.0, r_min=1e-3)
    want = np.stack([np.stack([second[i][j](pts[:, 0], pts[:, 1])
                               for j in range(2)], axis=-1)
                     for i in range(2)], axis=-2)
    H = cosine_defect_hamiltonian(h_, c_, d_)
    hess = H.hessian(0.0, pts)
    assert np.max(np.abs(hess - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])
    assert np.array_equal(H.hessian(0.0, np.zeros((1, 2))), np.zeros((1, 2, 2)))


# ---------------------------------------------------------------------------
# liouville_pairing
# ---------------------------------------------------------------------------


def test_pairing_quadratic_closed_form():
    H = QuadraticHamiltonian(0.9, 1.1)
    p = DiscPoint(0.7 * np.cos(1.23), 0.7 * np.sin(1.23))
    assert abs(liouville_pairing(H, 0.0, p) + 1.1 * 0.49) <= 1e-12


def test_pairing_vanishes_at_origin():
    H = cosine_defect_hamiltonian(2, 0.3, 0.0)
    assert liouville_pairing(H, 0.0, DiscPoint(0.0, 0.0)) == 0.0


def test_pairing_rigid_rotation_boundary():
    H = RigidRotationHamiltonian(2, 1, 3)
    p = DiscPoint(np.cos(0.77), np.sin(0.77))
    assert abs(liouville_pairing(H, 0.0, p) - 1.0 / 3.0) <= 1e-12


def test_pairing_is_direct_lambda_of_field(rng):
    # lambda(X) computed via r^2 dtheta applied to X, away from the origin
    H = cosine_defect_hamiltonian(3, 0.5, 0.3)
    pts = random_disc_points(rng, 200, r_max=0.95, r_min=0.1)
    X = H.velocity(0.0, pts)
    lam = pts[..., 0] * X[..., 1] - pts[..., 1] * X[..., 0]
    assert np.max(np.abs(lam - liouville_pairing(H, 0.0, pts))) <= 1e-9


def test_pairing_equals_radial_derivative_identity(rng):
    # lambda(X) = -(r/2) dH/dr on analytic oracles
    H = QuadraticHamiltonian(1.3, 0.7)
    pts = random_disc_points(rng, 300)
    g = H.grad(0.0, pts)
    radial = pts[..., 0] * g[..., 0] + pts[..., 1] * g[..., 1]
    assert np.max(np.abs(liouville_pairing(H, 0.0, pts) + 0.5 * radial)) <= 1e-9


# ---------------------------------------------------------------------------
# contact_margin and contact_audit
# ---------------------------------------------------------------------------


def test_margin_quadratic_is_a0(rng):
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    pts = random_disc_points(rng, 50)
    assert np.max(np.abs(contact_margin(H, 0.0, pts) - SQRT2)) <= 1e-12


def test_margin_constant_hamiltonian():
    H = QuadraticHamiltonian(4.0, 0.0)
    assert abs(contact_margin(H, 0.0, DiscPoint(0.3, 0.3)) - 4.0) <= 1e-14


def test_margin_rigid_rotation_boundary():
    # H + lambda(X) at r = 1 is h + p/q: the boundary value of H plus the
    # pairing p/q, exactly the orbit-slope margin of the collapsed action
    H = RigidRotationHamiltonian(2, 1, 3)
    p = DiscPoint(np.cos(0.2), np.sin(0.2))
    assert abs(contact_margin(H, 0.0, p) - (2.0 + 1.0 / 3.0)) <= 1e-12


def test_margin_additive_constant(rng):
    base = cosine_defect_hamiltonian(3, 0.5, 0.2)
    shifted = cosine_defect_hamiltonian(3 + 2.5, 0.5, 0.2)
    pts = random_disc_points(rng, 100)
    m0 = contact_margin(base, 0.0, pts)
    m1 = contact_margin(shifted, 0.0, pts)
    assert np.max(np.abs(m1 - m0 - 2.5)) <= 1e-9


def test_margin_agrees_with_radial_form(rng):
    H = cosine_defect_hamiltonian(3, 1.0, 0.1)
    pts = random_disc_points(rng, 64, r_max=0.99, r_min=0.05)
    g = H.grad(0.0, pts)
    r_dr = pts[..., 0] * g[..., 0] + pts[..., 1] * g[..., 1]
    alt = H.value(0.0, pts) - 0.5 * r_dr
    assert np.max(np.abs(contact_margin(H, 0.0, pts) - alt)) <= 1e-9


def test_contact_audit_constant_margin():
    rep = contact_audit(QuadraticHamiltonian(SQRT2, 2 - SQRT2))
    assert rep.passed
    assert abs(rep.min_margin - SQRT2) <= 1e-10
    assert rep.boundary_slope_max < 2 * rep.boundary_value


def test_contact_audit_detects_violation():
    h = 2
    rep = contact_audit(QuadraticHamiltonian(-0.1, h + 0.1),
                        SamplingGrid(8, 16, 16))
    assert not rep.passed
    assert abs(rep.min_margin + 0.1) <= 1e-10


def test_contact_audit_grid_minimization():
    rep = contact_audit(cosine_defect_hamiltonian(3, 1.0, 0.1),
                        SamplingGrid(8, 32, 32))
    # closed form: margin = 4 + 0.1 cos(theta) >= 3.9
    assert rep.passed
    assert abs(rep.min_margin - 3.9) <= 1e-6


def test_contact_audit_fails_on_nan():
    # the quadratic model of test_contact_audit_constant_margin, broken to
    # NaN where x > 0.5 on the later s-slices only
    a0, a2 = SQRT2, 2 - SQRT2

    def broken(s, xy):
        return np.where((s >= np.pi) & (xy[..., 0] > 0.5), np.nan, 1.0)

    H = CallableHamiltonian(
        lambda s, xy: broken(s, xy) * (a0 + a2 * np.sum(xy**2, axis=-1)),
        a0 + a2,
        grad_fn=lambda s, xy: broken(s, xy)[..., None] * (2.0 * a2 * xy),
    )
    rep = contact_audit(H, SamplingGrid(8, 16, 16))
    assert np.isnan(rep.min_margin) and np.isnan(rep.boundary_slope_max)
    assert not rep.passed


def test_contact_audit_sweeps_one_slice_for_an_autonomous_h():
    # the quadratic model as a callable that counts its value calls: an
    # autonomous H gives every slice the same samples, so one sweep holds
    # every bit of the report that n_s sweeps give
    a0, a2 = SQRT2, 2 - SQRT2
    grid = SamplingGrid(8, 16, 16)

    def audit(time_dependent):
        seen = []

        def value(s, xy):
            seen.append(s)
            return a0 + a2 * np.sum(xy**2, axis=-1)

        H = CallableHamiltonian(value, a0 + a2,
                                grad_fn=lambda s, xy: 2.0 * a2 * xy,
                                time_dependent=time_dependent)
        return contact_audit(H, grid), seen

    once, once_s = audit(False)
    every, every_s = audit(True)
    assert once_s == [0.0] and every_s == list(grid.s_values())
    assert once.to_dict() == every.to_dict()
    assert _bits([once.min_margin, once.boundary_slope_max]).tolist() == \
        _bits([every.min_margin, every.boundary_slope_max]).tolist()


def test_contact_audit_rejects_coarse_grid():
    with pytest.raises(ConfigurationError):
        SamplingGrid(4, 64, 64)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_value_only_hamiltonian_has_no_derivatives():
    # every derivative is an analytic oracle: without grad_fn or hessian_fn
    # the derivative fields raise, there is no finite-difference fallback
    H = CallableHamiltonian(_first_coordinate, 0.0)
    pts = np.array([[0.1, 0.2], [0.5, -0.3]])
    assert np.array_equal(H.value(0.0, pts), pts[:, 0])
    for oracle in (H.grad, H.hessian, H.velocity, H.velocity_jacobian):
        with pytest.raises(NotImplementedError):
            oracle(0.0, pts)


def test_every_cli_hamiltonian_has_a_velocity_jacobian():
    # the Hamiltonians a config can build: the three parse_hamiltonian
    # types and a pseudorotation stage; none reaches the raise above
    from reebcut.pseudorotations import conjugated_stage
    from reebcut.reports import parse_hamiltonian

    blocks = [{"type": "quadratic", "a0": 1.2, "a2": 0.8},
              {"type": "rigid", "h": 2, "p": 1, "q": 3},
              {"type": "cosine-defect", "h": 3, "c": 0.4, "d": 0.5}]
    hams = [parse_hamiltonian(b) for b in blocks]
    hams.append(conjugated_stage(2, 1, 3, w_grid=64).hamiltonian)
    theta = np.linspace(0.0, TWO_PI, 12, endpoint=False)
    pts = np.concatenate([
        [[0.0, 0.0]],
        np.stack([0.5 * np.cos(theta), 0.5 * np.sin(theta)], axis=-1),
        np.stack([np.cos(theta), np.sin(theta)], axis=-1),
    ])
    for H in hams:
        for s in (0.0, 1.3):
            jac = H.velocity_jacobian(s, pts)
            assert jac.shape == (len(pts), 2, 2)
            assert np.all(np.isfinite(jac)), H


def test_oracle_failure_carries_location():
    from reebcut.errors import EvaluationError

    def broken(s, xy):
        raise RuntimeError("backend went away")

    H = CallableHamiltonian(broken, 1.0)
    with pytest.raises(EvaluationError) as err:
        H.value(0.7, np.array([0.1, 0.2]))
    assert err.value.s == 0.7
    assert err.value.point is not None


# ---------------------------------------------------------------------------
# cubic slice weights in s
# ---------------------------------------------------------------------------


def _one_hot(family, s_nodes):
    """A ``family`` instance whose slice j reads 1 at point j and 0
    elsewhere, with K = 0 and the support radius 2, so its value and
    gradient at the origin, taken len(s_nodes) times, read off each
    slice's weight; the slices built are recorded in ``built``."""
    from types import SimpleNamespace

    H = object.__new__(family)
    SlicedHamiltonian.__init__(H, s_nodes)
    H.K, H.support_radius, H.built = QuadraticHamiltonian(0.0, 0.0), 2.0, []

    def slice_field(j):
        H.built.append(j)
        hot = np.eye(len(s_nodes))[j]
        return SimpleNamespace(ev=lambda dx, dy, x, y: hot.copy())

    H._slice_field = slice_field
    return H


def test_slice_weights_match_the_old_loop_bitwise():
    from reebcut.moser import CanonicalHamiltonian
    from reebcut.pseudorotations import ComposedHamiltonian

    s_nodes = np.linspace(0.0, TWO_PI, 33)
    xy = np.zeros((len(s_nodes), 2))
    mids = 0.5 * (s_nodes[1:] + s_nodes[:-1])
    # nodes (both ends among them), midpoints and the canonical wrap; the
    # canonical Hamiltonian wraps s mod 2pi first, the composite does not
    cases = [(ComposedHamiltonian, s, float(s))
             for s in list(s_nodes) + list(mids)]
    cases += [(CanonicalHamiltonian, s, float(s) % TWO_PI)
              for s in list(s_nodes) + list(mids) + [TWO_PI + 0.3, -0.2]]
    for family, s, wrapped in cases:
        js, w = lagrange_slice_weights(s_nodes, wrapped)
        H = _one_hot(family, s_nodes)
        for got in (H.value(s, xy), *H.grad_components(s, xy)):
            # 0 + w is w, and adding the other slices' +-0 keeps it; ==
            # forgives only the sign of a zero weight
            assert np.all(got[js] == w) and not np.any(np.delete(got, js))
        # one slice build each, however often the weights are taken
        assert H.built == js, (family.__name__, s)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("dx, dy", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                    (0, 2)])
def test_quintic_field_ev_is_scipys_call_bitwise(dx, dy):
    # every partial the oracles read, against scipy's public evaluations;
    # the Newton loop of the canonical slices relied on __call__(dx=...)
    from scipy.interpolate import RectBivariateSpline

    rng = np.random.default_rng(16)
    ax_x = np.linspace(-1.05, 1.05, 21)
    ax_y = np.sort(rng.uniform(-1.0, 2.0, 17))
    values = rng.standard_normal((21, 17))
    field = QuinticField(ax_x, ax_y, values)
    ref = RectBivariateSpline(ax_x, ax_y, values, kx=5, ky=5)
    # the knots and the coefficients of the fit
    for mine, theirs in zip(field.tck, ref.tck):
        assert np.array_equal(_bits(mine), _bits(theirs))
    xs = np.concatenate([
        rng.uniform(-1.5, 1.5, 400),              # inside and outside the box
        [-0.0, 0.0, np.nan, np.inf, -np.inf, 3.0, -3.0, 0.3, ax_x[0]],
    ])
    ys = np.concatenate([
        rng.uniform(-2.0, 3.0, 400),
        [0.0, -0.0, 0.5, 0.5, 0.5, 0.1, 9.0, np.nan, ax_y[-1]],
    ])
    want = ref(xs, ys, dx=dx, dy=dy, grid=False)
    assert np.array_equal(_bits(ref.ev(xs, ys, dx=dx, dy=dy)), _bits(want))
    # the first call builds the partial, the second reads the kept one
    for _ in range(2):
        assert np.array_equal(_bits(field.ev(dx, dy, xs, ys)), _bits(want))
    batch = field.ev(dx, dy, xs[:400].reshape(20, 20), ys[:400].reshape(20, 20))
    assert batch.shape == (20, 20)
    assert np.array_equal(_bits(batch), _bits(want[:400].reshape(20, 20)))
    # 0-d arrays and the Python floats of the one-point velocity
    for i in (0, 1, *range(400, xs.size)):
        for x, y in ((np.asarray(xs[i]), np.asarray(ys[i])),
                     (float(xs[i]), float(ys[i]))):
            got = field.ev(dx, dy, x, y)
            assert np.shape(got) == ()
            assert _bits(float(got)) == _bits(want[i])


def test_quintic_field_point_grad_is_ev_bitwise():
    # the one-point gradient of the one-point velocity: both partials as
    # Python floats, bit for bit ev's, inside and outside the knot span
    # and at NaN; the first call derives the partials, later ones reuse them
    rng = np.random.default_rng(21)
    ax = np.linspace(-1.05, 1.05, 19)
    field = QuinticField(ax, ax, rng.standard_normal((19, 19)))
    xs = np.concatenate([rng.uniform(-1.05, 1.05, 200),
                         [1.3, -2.0, 0.2, 5.0, np.nan, 0.1, np.nan, -0.0]])
    ys = np.concatenate([rng.uniform(-1.05, 1.05, 200),
                         [0.4, -1.7, -3.0, 5.0, 0.3, np.nan, np.nan, 0.0]])
    for x, y in zip(xs.tolist(), ys.tolist()):
        got = field.point_grad(x, y)
        assert all(type(g) is float for g in got)
        want = (float(field.ev(1, 0, x, y)), float(field.ev(0, 1, x, y)))
        assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# options without a caller are gone
# ---------------------------------------------------------------------------


def _first_coordinate(s, xy):
    return xy[..., 0]


def _removed_options():
    from reebcut import (CanonicalRecoverySettings,
                         ConjugatorSchedule, ConjugatorSpec, ExtensionSettings,
                         GridFunction2D, build_conjugator, bump_profile,
                         conjugated_stage,
                         continued_fraction_convergents,
                         primitive_change_audit, reeb_period, stage_sequence)
    from reebcut.binding import (PolarFunction, adapted_collar_g,
                                 extended_contact_audit, pullback_residual)
    from reebcut.flows import PeriodicPointRecord, periodic_point_scan
    from reebcut.invariants import (RotationSettings, _candidate_poles,
                                    rotation_number)
    from reebcut.moser import (CanonicalHamiltonian, g_function_values,
                               moser_flow, poincare_primitive)
    from reebcut.pseudorotations import (ConjugatedRotationHamiltonian,
                                         boundary_jet_check)
    from reebcut.reports import RunReport, parse_hamiltonian
    from reebcut.svgplots import polyline_svg

    f, origin = _first_coordinate, np.zeros(2)
    return {
        "CallableHamiltonian-ds_fn":
            lambda: CallableHamiltonian(f, 0.0, ds_fn=f),
        "CallableHamiltonian-fd_step":
            lambda: CallableHamiltonian(f, 0.0, fd_step=1e-6),
        "CallableHamiltonian-collar_width":
            lambda: CallableHamiltonian(f, 0.0, collar_width=0.5),
        "CallableHamiltonian-autonomous_near_boundary":
            lambda: CallableHamiltonian(f, 0.0, autonomous_near_boundary=True),
        "CallableHamiltonian-radial_near_boundary":
            lambda: CallableHamiltonian(f, 0.0, radial_near_boundary=True),
        "ExtensionSettings-threshold_scale":
            lambda: ExtensionSettings(threshold_scale=1.0),
        "ExtensionSettings-eta_frac": lambda: ExtensionSettings(eta_frac=2.0),
        "CanonicalRecoverySettings-area_tol":
            lambda: CanonicalRecoverySettings(area_tol=1.0),
        "CanonicalRecoverySettings-probe_step":
            lambda: CanonicalRecoverySettings(probe_step=1e-3),
        "CanonicalRecoverySettings-oracle_grid":
            lambda: CanonicalRecoverySettings(oracle_grid=40),
        "CanonicalHamiltonian-oracle_grid":
            lambda: CanonicalHamiltonian(*[None] * 7, oracle_grid=200),
        "RotationSettings-center_tol":
            lambda: RotationSettings(center_tol=1.0),
        "ConjugatorSchedule-amplitude_factor":
            lambda: ConjugatorSchedule(amplitude_factor=1.0),
        "ConjugatedRotationHamiltonian-delta":
            lambda: ConjugatedRotationHamiltonian(2, 1, 3, None, 0.2),
        "conjugated_stage-flow_steps":
            lambda: conjugated_stage(2, 1, 3, flow_steps=10),
        "conjugated_stage-check_support":
            lambda: conjugated_stage(2, 1, 3, check_support=False),
        "continued_fraction_convergents-reject_rational_tol":
            lambda: continued_fraction_convergents(0.5, 3, reject_rational_tol=0),
        "continued_fraction_convergents-max_denominator":
            lambda: continued_fraction_convergents(0.5, 3, max_denominator=1),
        "stage_sequence-k_max_norms":
            lambda: stage_sequence(0.6, 1, 2, k_max_norms=0),
        "reeb_period-closure_tol":
            lambda: reeb_period(None, None, closure_tol=1.0),
        "GridFunction2D-quadrature":
            lambda: GridFunction2D(np.zeros((8, 8)), quadrature="simpson"),
        "GridFunction2D-margin":
            lambda: GridFunction2D(np.zeros((8, 8)), margin=3),
        "build_conjugator-audit_grid":
            lambda: build_conjugator(ConjugatorSpec(), audit_grid=(4, 4)),
        "primitive_change_audit-collar":
            lambda: primitive_change_audit(None, 2, collar=0.3),
        "primitive_change_audit-boundary_tol":
            lambda: primitive_change_audit(None, 2, boundary_tol=1.0),
        "g_function_values-probe_step":
            lambda: g_function_values(None, 0.0, [], probe_step=1e-6),
        "extended_contact_audit-n_b":
            lambda: extended_contact_audit(None, n_b=16),
        "extended_contact_audit-n_dirs":
            lambda: extended_contact_audit(None, n_dirs=32),
        "extended_contact_audit-rho_samples":
            lambda: extended_contact_audit(None, rho_samples=[0.1]),
        "adapted_collar_g-collar_width":
            lambda: adapted_collar_g(None, 2, 0.0, 0.0, 0.0, collar_width=0.5),
        "adapted_collar_g-tol":
            lambda: adapted_collar_g(None, 2, 0.0, 0.0, 0.0, tol=1e-12),
        "pullback_residual-r_range":
            lambda: pullback_residual(None, None, r_range=(0.05, 0.8)),
        "pullback_residual-step_fraction":
            lambda: pullback_residual(None, None, step_fraction=10.0),
        "primitive_change_audit-n_theta":
            lambda: primitive_change_audit(None, 2, n_theta=64),
        "primitive_change_audit-settings":
            lambda: primitive_change_audit(None, 2, settings=None),
        "PolarFunction.dtheta-step":
            lambda: PolarFunction(f).dtheta(1.0, 0.0, step=1e-5),
        "periodic_point_scan-newton_steps":
            lambda: periodic_point_scan(None, 1, origin, newton_steps=10),
        "periodic_point_scan-refine":
            lambda: periodic_point_scan(None, 1, origin, refine=True),
        "periodic_point_scan-newton_tol":
            lambda: periodic_point_scan(None, 1, origin, newton_tol=1e-10),
        "PeriodicPointRecord-converged":
            lambda: PeriodicPointRecord(1, origin, 0.0, converged=True),
        "check_s_periodicity-n_s": lambda: check_s_periodicity(None, n_s=16),
        "check_s_periodicity-n_points":
            lambda: check_s_periodicity(None, n_points=64),
        "check_s_periodicity-tol": lambda: check_s_periodicity(None, tol=1e-10),
        "check_s_periodicity-rng": lambda: check_s_periodicity(None, rng=None),
        "rotation_number-f0": lambda: rotation_number(None, "B", f0=2.0),
        "hopf_circles-phase": lambda: hopf_circles(8, phase=0.3),
        "_candidate_poles-n": lambda: _candidate_poles(n=64),
        "_candidate_poles-seed": lambda: _candidate_poles(seed=7),
        "moser_flow-chi": lambda: moser_flow(None, None, chi=None),
        "poincare_primitive-chi": lambda: poincare_primitive(None, chi=None),
        "bump_profile-a": lambda: bump_profile(0.5, a=0.3),
        "bump_profile-b": lambda: bump_profile(0.5, b=0.7),
        "bump_profile-power": lambda: bump_profile(0.5, power=8),
        "CanonicalHamiltonian._theta_padded-pad":
            lambda: CanonicalHamiltonian(*[None] * 6, 0.5)._theta_padded(
                origin, pad=6),
        "ConjugatorSchedule-r_inner": lambda: ConjugatorSchedule(r_inner=0.15),
        "stage_sequence-scan_grid":
            lambda: stage_sequence(0.6, 1, 2, scan_grid=(3, 8)),
        "stage_sequence-audit_grid":
            lambda: stage_sequence(0.6, 1, 2, audit_grid=None),
        "boundary_jet_check-n_s": lambda: boundary_jet_check(None, 0.5, n_s=8),
        "boundary_jet_check-n_theta":
            lambda: boundary_jet_check(None, 0.5, n_theta=16),
        "boundary_jet_check-step":
            lambda: boundary_jet_check(None, 0.5, step=0.02),
        "parse_hamiltonian-path":
            lambda: parse_hamiltonian({}, path="hamiltonian."),
        "RunReport-version": lambda: RunReport({}, {}, [], version="0"),
        "polyline_svg-colors":
            lambda: polyline_svg([([0.0], [0.0])], colors=("black",)),
    }


@pytest.mark.parametrize("option", sorted(_removed_options()))
def test_removed_option_is_rejected(option):
    # every one of these was one-valued or never read; its value is now a
    # module constant, so passing it is a TypeError, not a silent change.
    # The message pins the cause: the call must fail on its signature.
    name = option.rsplit("-", 1)[1]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"
                                        "|takes .* positional argument"):
        _removed_options()[option]()


def test_no_hamiltonian_carries_ds_or_collar_flags():
    import reebcut  # noqa: F401  (loads every Hamiltonian subclass)
    from reebcut.hamiltonians import Hamiltonian
    from reebcut.moser import CanonicalHamiltonian
    from reebcut.pseudorotations import (ConjugatedRotationHamiltonian,
                                         ConjugatorSpec, build_conjugator)

    classes, todo = {Hamiltonian}, [Hamiltonian]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("reebcut.") and sub not in classes:
                classes.add(sub)
                todo.append(sub)
    assert {CanonicalHamiltonian, ConjugatedRotationHamiltonian} <= classes
    # these were set per instance, so check instances of each kind too
    grid = np.zeros((1, 1, 1))
    instances = [
        QuadraticHamiltonian(1.0, 0.5),
        RigidRotationHamiltonian(2, 1, 3),
        cosine_defect_hamiltonian(3, 0.4, 0.5),
        CallableHamiltonian(_first_coordinate, 0.0),
        ConjugatedRotationHamiltonian(
            2, 1, 3, build_conjugator(ConjugatorSpec(amplitude=0.0)), grid_n=16),
        CanonicalHamiltonian(None, None, None, grid, grid, grid, 0.5),
    ]
    gone = ("ds", "autonomous_near_boundary", "radial_near_boundary",
            "collar_width", "fd_step")
    for obj in list(classes) + instances:
        assert not [name for name in gone if hasattr(obj, name)], obj
